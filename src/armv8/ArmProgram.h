//===- armv8/ArmProgram.h - ARMv8 litmus programs --------------------------===//
///
/// \file
/// ARMv8-side litmus programs: the target of the JS→ARMv8 compilation
/// scheme (§5.1) and the subject language of the diy-style generator used
/// for the §4.1 validation corpus. Instructions carry the architectural
/// attributes the axiomatic model consumes: acquire/release, exclusivity,
/// barriers, and address/data/control dependencies (expressed through
/// registers).
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ARMV8_ARMPROGRAM_H
#define JSMM_ARMV8_ARMPROGRAM_H

#include "armv8/ArmEvent.h"
#include "litmus/PathEnum.h"

#include <functional>
#include <string>
#include <vector>

namespace jsmm {

/// One ARMv8 instruction of a thread body.
struct ArmInstr {
  enum class Kind : uint8_t {
    Load,
    Store,
    DmbFull,
    DmbLd,
    DmbSt,
    Isb,
    IfEq,
    IfNe,
  } K = Kind::Load;

  unsigned Block = 0;
  unsigned Offset = 0;
  unsigned Width = 4;
  bool Acquire = false;
  bool Release = false;
  bool Exclusive = false;
  unsigned Dst = 0;   ///< destination register (Load)
  uint64_t Value = 0; ///< stored value (Store) / compared value (If*)
  unsigned CondReg = 0;
  std::vector<ArmInstr> Body; ///< nested statements of If*

  int AddrDepOn = -1; ///< register this access's address depends on, or -1
  int DataDepOn = -1; ///< register a store's data depends on, or -1
  int CtrlDepOn = -1; ///< register a no-op branch before this instruction
                      ///< scrutinises (diy-style ctrl edge), or -1
  int SourceTag = -1; ///< source (JS) instruction tag, for translation
  int RmwTag = -1;    ///< exclusive pairing tag: load and store of one RMW
                      ///< share a tag
};

class ArmThreadBuilder;

/// A multi-threaded ARMv8 program over zero-initialised shared buffers.
class ArmProgram {
public:
  explicit ArmProgram(unsigned BufferSize) {
    BufferSizes.push_back(BufferSize);
  }

  unsigned addBuffer(unsigned Size) {
    BufferSizes.push_back(Size);
    return static_cast<unsigned>(BufferSizes.size() - 1);
  }

  ArmThreadBuilder thread();

  /// Adds a thread from a pre-built instruction list (used by the JS->ARM
  /// compiler, which assigns register numbers itself). \returns the thread
  /// index.
  unsigned addRawThread(std::vector<ArmInstr> Body);

  unsigned numThreads() const {
    return static_cast<unsigned>(Threads.size());
  }
  const std::vector<ArmInstr> &threadBody(unsigned T) const {
    return Threads[T];
  }
  const std::vector<unsigned> &bufferSizes() const { return BufferSizes; }

  std::string Name = "anonymous";

private:
  friend class ArmThreadBuilder;
  std::vector<std::vector<ArmInstr>> Threads;
  std::vector<unsigned> BufferSizes;
  std::vector<unsigned> NextReg;
};

/// Fluent builder for one ARM thread.
class ArmThreadBuilder {
public:
  ArmThreadBuilder(ArmProgram &P, unsigned ThreadIndex)
      : P(P), ThreadIndex(ThreadIndex) {}

  /// ldr (plain), ldar (Acquire), ldxr/ldaxr (Exclusive).
  Reg load(unsigned Offset, unsigned Width, bool Acquire = false,
           bool Exclusive = false, unsigned Block = 0, int SourceTag = -1,
           int RmwTag = -1);
  /// str (plain), stlr (Release), stxr/stlxr (Exclusive).
  ArmThreadBuilder &store(unsigned Offset, unsigned Width, uint64_t Value,
                          bool Release = false, bool Exclusive = false,
                          unsigned Block = 0, int SourceTag = -1,
                          int RmwTag = -1);
  ArmThreadBuilder &fence(ArmInstr::Kind Kind);
  ArmThreadBuilder &ifEq(Reg R, uint64_t Value,
                         const std::function<void(ArmThreadBuilder &)> &Body);
  ArmThreadBuilder &ifNe(Reg R, uint64_t Value,
                         const std::function<void(ArmThreadBuilder &)> &Body);

  /// Marks the most recently emitted access as address- (or data-)
  /// dependent on \p R; ctrlDep inserts a diy-style no-op branch on \p R
  /// before it.
  ArmThreadBuilder &addrDep(Reg R);
  ArmThreadBuilder &dataDep(Reg R);
  ArmThreadBuilder &ctrlDep(Reg R);

  unsigned thread() const { return ThreadIndex; }

private:
  friend class ArmProgram;
  ArmThreadBuilder(ArmProgram &P, unsigned ThreadIndex,
                   std::vector<ArmInstr> *Into)
      : P(P), ThreadIndex(ThreadIndex), Into(Into) {}

  std::vector<ArmInstr> &body();

  ArmProgram &P;
  unsigned ThreadIndex;
  std::vector<ArmInstr> *Into = nullptr;
};

/// One element of an unfolded ARM thread path: the instruction plus the set
/// of registers it is control-dependent on (a bit mask over register
/// indices). Control dependencies are monotone: once a branch scrutinising
/// register r has been passed, every later instruction of the thread is
/// control-dependent on r, whether or not the branch was taken.
struct ArmPathElem {
  const ArmInstr *I = nullptr;
  uint64_t CtrlRegs = 0;
};

/// One control-flow unfolding of an ARM thread.
struct ArmThreadPath {
  std::vector<ArmPathElem> Elems;
  std::vector<RegConstraint> Constraints;
};

/// \returns every control-flow path of \p Body. As in enumeratePaths, a
/// conditional on a register no earlier load on the path assigns is
/// decided by the value 0.
std::vector<ArmThreadPath> enumerateArmPaths(const std::vector<ArmInstr> &Body);

/// \returns the largest number of events any control-flow path of \p Body
/// materialises (loads, stores and fences of every nested body; branches
/// produce no events). Computed by summation, not path enumeration.
unsigned maxArmPathEvents(const std::vector<ArmInstr> &Body);

/// \returns an upper bound on the event-universe size of any execution of
/// \p P: one Init per buffer plus each thread's maxArmPathEvents. The
/// ARM-side twin of programEventUpperBound (litmus/PathEnum.h).
unsigned armProgramEventUpperBound(const ArmProgram &P);

/// \returns true if register \p Reg holding \p Value satisfies the path's
/// constraints mentioning Reg.
bool armConstraintsAllow(const ArmThreadPath &Path, unsigned Reg,
                         uint64_t Value);

} // namespace jsmm

#endif // JSMM_ARMV8_ARMPROGRAM_H
