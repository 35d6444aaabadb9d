//===- litmus/Program.h - JavaScript litmus programs ----------------------===//
///
/// \file
/// The restricted JavaScript fragment the paper works with (§3): a fixed
/// number of threads, each performing shared-memory accesses with simple
/// control flow, over one or more already-initialised SharedArrayBuffers
/// (wrapped by typed arrays of arbitrary width, or accessed unaligned via
/// DataViews).
///
/// Programs are built with a small fluent API:
///
/// \code
///   Program P(/*BufferSize=*/16);
///   ThreadBuilder T0 = P.thread();
///   T0.store(Acc::u32(0), 3);                      // x[0] = 3
///   T0.store(Acc::u32(4).sc(), 5);                 // Atomics.store(x,1,5)
///   ThreadBuilder T1 = P.thread();
///   Reg R0 = T1.load(Acc::u32(4).sc());            // Atomics.load(x,1)
///   T1.ifEq(R0, 5, [&](ThreadBuilder &B) {
///     B.load(Acc::u32(0));                         // x[0]
///   });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_LITMUS_PROGRAM_H
#define JSMM_LITMUS_PROGRAM_H

#include "core/Event.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace jsmm {

/// A thread-local register holding the result of a load.
struct Reg {
  int Thread = -1;
  unsigned Index = 0;
};

/// An access descriptor: block, byte offset, width, mode, tear-freedom.
/// Typed-array accesses of width 1, 2 or 4 are tear-free and aligned;
/// DataView accesses may be unaligned and are tearing (§2).
struct Acc {
  unsigned Block = 0;
  unsigned Offset = 0;
  unsigned Width = 4;
  Mode Ord = Mode::Unordered;
  bool TearFree = true;

  /// 8/16/32/64-bit typed-array access at byte offset \p Offset.
  /// 64-bit integer accesses tear unless atomic (BigUint64Array semantics).
  static Acc u8(unsigned Offset) { return {0, Offset, 1, Mode::Unordered,
                                           true}; }
  static Acc u16(unsigned Offset) { return {0, Offset, 2, Mode::Unordered,
                                            true}; }
  static Acc u32(unsigned Offset) { return {0, Offset, 4, Mode::Unordered,
                                            true}; }
  static Acc u64(unsigned Offset) { return {0, Offset, 8, Mode::Unordered,
                                            false}; }
  /// A DataView access: arbitrary width/alignment, tearing.
  static Acc dataView(unsigned Offset, unsigned Width) {
    return {0, Offset, Width, Mode::Unordered, false};
  }

  /// \returns a copy with SeqCst mode (an Atomics.* access; tear-free).
  Acc sc() const {
    Acc A = *this;
    A.Ord = Mode::SeqCst;
    A.TearFree = true;
    return A;
  }
  /// \returns a copy on SharedArrayBuffer \p B.
  Acc block(unsigned B) const {
    Acc A = *this;
    A.Block = B;
    return A;
  }
};

/// One statement of a thread body.
struct Instr {
  enum class Kind : uint8_t { Load, Store, Rmw, IfEq, IfNe } K;
  Acc Access;          ///< for Load/Store/Rmw
  unsigned Dst = 0;    ///< destination register (Load/Rmw)
  uint64_t Value = 0;  ///< stored value (Store/Rmw) or compared value (If*)
  unsigned CondReg = 0;         ///< register compared by If*
  std::vector<Instr> Body;      ///< nested statements of If*
};

class ThreadBuilder;

/// A multi-threaded litmus program over shared buffers (zero-initialised
/// unless setInitByte says otherwise).
class Program {
public:
  /// \param BufferSize byte size of block 0 (additional blocks via
  /// addBuffer).
  explicit Program(unsigned BufferSize) {
    BufferSizes.push_back(BufferSize);
    InitBytes.emplace_back();
  }

  /// Declares another SharedArrayBuffer; \returns its block id.
  unsigned addBuffer(unsigned Size) {
    BufferSizes.push_back(Size);
    InitBytes.emplace_back();
    return static_cast<unsigned>(BufferSizes.size() - 1);
  }

  /// Sets the initial value of one byte of \p Block (default is zero).
  /// \p Offset must be within the buffer.
  void setInitByte(unsigned Block, unsigned Offset, uint8_t Value) {
    std::vector<uint8_t> &Bytes = InitBytes[Block];
    if (Bytes.empty())
      Bytes.assign(BufferSizes[Block], 0);
    Bytes[Offset] = Value;
  }

  /// The initial bytes of \p Block: empty means all-zero (the common
  /// case keeps no per-byte storage), otherwise exactly bufferSizes()[B]
  /// entries.
  const std::vector<uint8_t> &initBytes(unsigned Block) const {
    return InitBytes[Block];
  }

  /// \returns true if any buffer has a nonzero initial byte.
  bool hasNonZeroInit() const {
    for (const std::vector<uint8_t> &Bytes : InitBytes)
      for (uint8_t B : Bytes)
        if (B)
          return true;
    return false;
  }

  /// Adds a thread and \returns a builder for its body.
  ThreadBuilder thread();

  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }
  const std::vector<Instr> &threadBody(unsigned T) const {
    return Threads[T];
  }
  const std::vector<unsigned> &bufferSizes() const { return BufferSizes; }

  std::string Name = "anonymous";

private:
  friend class ThreadBuilder;
  std::vector<std::vector<Instr>> Threads;
  std::vector<unsigned> BufferSizes;
  std::vector<std::vector<uint8_t>> InitBytes;
  std::vector<unsigned> NextReg;
};

/// Fluent builder for one thread's body. Copies of a builder share the same
/// underlying thread.
class ThreadBuilder {
public:
  ThreadBuilder(Program &P, unsigned ThreadIndex)
      : P(P), ThreadIndex(ThreadIndex) {}

  // load, store and exchange throw std::out_of_range when the access
  // names an undeclared buffer or runs past its buffer's end.

  /// Emits a load; \returns the register receiving the value.
  Reg load(Acc A);
  /// Emits a store of \p Value.
  ThreadBuilder &store(Acc A, uint64_t Value);
  /// Emits an Atomics.exchange writing \p Value; \returns the register
  /// receiving the old value. The access is forced SeqCst.
  Reg exchange(Acc A, uint64_t Value);
  /// Emits `if (R == Value) { ... }`.
  ThreadBuilder &ifEq(Reg R, uint64_t Value,
                      const std::function<void(ThreadBuilder &)> &Body);
  /// Emits `if (R != Value) { ... }`.
  ThreadBuilder &ifNe(Reg R, uint64_t Value,
                      const std::function<void(ThreadBuilder &)> &Body);

  unsigned thread() const { return ThreadIndex; }

private:
  friend class Program;
  ThreadBuilder(Program &P, unsigned ThreadIndex, std::vector<Instr> *Into)
      : P(P), ThreadIndex(ThreadIndex), Into(Into) {}

  std::vector<Instr> &body();
  void checkRange(const Acc &A) const;

  Program &P;
  unsigned ThreadIndex;
  std::vector<Instr> *Into = nullptr; ///< nested body, or null for top level
};

} // namespace jsmm

#endif // JSMM_LITMUS_PROGRAM_H
