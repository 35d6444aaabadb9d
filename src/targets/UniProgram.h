//===- targets/UniProgram.h - Uni-size litmus programs ---------------------===//
///
/// \file
/// Straight-line uni-size JavaScript programs over abstract locations: the
/// program fragment of the Thm 6.3 compilation results (§6.3). Accesses are
/// Unordered or SeqCst loads/stores plus SeqCst exchanges; conditionals are
/// deliberately excluded (matching the dependency-free fragment the
/// simplified target models cover faithfully).
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TARGETS_UNIPROGRAM_H
#define JSMM_TARGETS_UNIPROGRAM_H

#include "exec/Outcome.h"
#include "litmus/Program.h"
#include "unisize/UniExecution.h"

#include <optional>
#include <string>
#include <vector>

namespace jsmm {

/// One instruction of a uni-size program.
struct UniInstr {
  enum class Kind : uint8_t { Load, Store, Rmw } K = Kind::Load;
  unsigned Loc = 0;
  uint64_t Value = 0; ///< stored value (Store/Rmw)
  Mode Ord = Mode::Unordered;
  unsigned Dst = 0;   ///< destination register (Load/Rmw)
};

/// A straight-line multi-threaded uni-size program.
class UniProgram {
public:
  explicit UniProgram(unsigned NumLocs) : NumLocs(NumLocs) {}

  unsigned thread() {
    Threads.emplace_back();
    NextReg.push_back(0);
    return static_cast<unsigned>(Threads.size() - 1);
  }
  /// Appends a load to thread \p T; \returns its register index.
  unsigned load(unsigned T, unsigned Loc, Mode Ord) {
    UniInstr I;
    I.K = UniInstr::Kind::Load;
    I.Loc = Loc;
    I.Ord = Ord;
    I.Dst = NextReg[T]++;
    Threads[T].push_back(I);
    return I.Dst;
  }
  void store(unsigned T, unsigned Loc, uint64_t Value, Mode Ord) {
    UniInstr I;
    I.K = UniInstr::Kind::Store;
    I.Loc = Loc;
    I.Value = Value;
    I.Ord = Ord;
    Threads[T].push_back(I);
  }
  /// Atomics.exchange; \returns the register receiving the old value.
  unsigned exchange(unsigned T, unsigned Loc, uint64_t Value) {
    UniInstr I;
    I.K = UniInstr::Kind::Rmw;
    I.Loc = Loc;
    I.Value = Value;
    I.Ord = Mode::SeqCst;
    I.Dst = NextReg[T]++;
    Threads[T].push_back(I);
    return I.Dst;
  }

  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }
  const std::vector<UniInstr> &threadBody(unsigned T) const {
    return Threads[T];
  }
  unsigned numLocs() const { return NumLocs; }

  std::string Name = "anonymous";

private:
  unsigned NumLocs;
  std::vector<std::vector<UniInstr>> Threads;
  std::vector<unsigned> NextReg;
};

/// \returns the exact event count of \p P's executions: one Init per
/// abstract location plus one event per instruction (uni-size programs are
/// straight-line, so every execution materialises every instruction).
unsigned uniProgramEventBound(const UniProgram &P);

/// Converts a straight-line mixed-size litmus Program whose accesses
/// partition into uniform-width, non-overlapping cells into the uni-size
/// fragment (cells become abstract locations, in (block, offset) order).
/// Registers keep their indices: both program forms assign them in
/// load/exchange order per thread, so outcomes compare directly. \returns
/// std::nullopt — with a reason in \p Why — when the program uses control
/// flow, gives one cell two widths, or overlaps distinct cells.
std::optional<UniProgram> uniFromProgram(const Program &P,
                                         std::string *Why = nullptr);

/// Renders a uni-size program as a mixed-size litmus Program (abstract
/// location L becomes the aligned u32 at byte offset 4L) — the syntactic
/// inverse of the §6.3 reduction, used to run the same litmus test under
/// the mixed-size JavaScript model variants.
Program mixedFromUni(const UniProgram &P);

/// The allowed-outcome set of \p P under the uni-size JavaScript model
/// (Fig. 12), sorted: the engine's joint target door with the uni-js
/// column alone (throws CapacityError past Relation::MaxSize events).
std::vector<Outcome> uniAllowedOutcomes(const UniProgram &P);

} // namespace jsmm

#endif // JSMM_TARGETS_UNIPROGRAM_H
