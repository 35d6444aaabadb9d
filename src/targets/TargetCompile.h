//===- targets/TargetCompile.h - Uni-size compilation schemes --------------===//
///
/// \file
/// The standard compilation schemes from uni-size JavaScript (Unordered /
/// SeqCst accesses, SeqCst exchange) to each Thm 6.3 target:
///
///   arch     Un load/store   SC load              SC store             RMW
///   x86      mov             mov                  mov; mfence          lock xchg
///   ARMv8    ldr/str         ldar                 stlr                 ldaxr;stlxr (as one amo-style event)
///   ARMv7    ldr/str         ldr; dmb             dmb; str; dmb        dmb; rmw; dmb
///   Power    ld/st           sync; ld; ctrlisync  sync; st             sync; rmw; ctrlisync
///   RISC-V   l/s             fence rw,rw; l;      fence rw,w; s;       amoswap.aq.rl
///                            fence r,rw           fence rw,rw
///   ImmLite  rlx             sc load              sc store             sc rmw
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TARGETS_TARGETCOMPILE_H
#define JSMM_TARGETS_TARGETCOMPILE_H

#include "targets/TargetModels.h"
#include "targets/UniProgram.h"

#include <map>
#include <optional>

namespace jsmm {

const char *targetArchName(TargetArch A);

/// One compiled instruction (an event template; loads get values during
/// enumeration).
struct TargetInstr {
  TKind Kind = TKind::Read;
  unsigned Loc = 0;
  uint64_t Value = 0;
  bool Acq = false, Rel = false, Sc = false;
  TFence Fence = TFence::None;
  int SourceIdx = -1;  ///< index into the flattened source access table
  unsigned DstReg = 0; ///< register receiving a load/RMW result
};

/// A uni-size program compiled for one target.
struct CompiledTarget {
  TargetArch Arch = TargetArch::ImmLite;
  unsigned NumLocs = 0;
  std::vector<std::vector<TargetInstr>> Threads;
  /// Flattened source accesses (thread-major order), for translation.
  struct Source {
    int Thread;
    Mode Ord;
    UniInstr::Kind Kind;
    unsigned Loc;
    uint64_t Value;
    unsigned DstReg;
  };
  std::vector<Source> Sources;
};

/// Compiles \p P for \p Arch with the scheme table above.
CompiledTarget compileUni(const UniProgram &P, TargetArch Arch);

/// \p CT's events as targetStatics reads them, numbered over the form's
/// *access view*: the init writes of the locations some instruction
/// reads, then each thread's instructions in program order, fences
/// included (their Id is not read). An init write of a location no read
/// touches has no incoming po, rf, co, fr or hb edge in any model, so it
/// lies on no cycle and no axiom's verdict depends on it (ARCHITECTURE.md,
/// "Init writes nobody reads"). compileUni maps each source access to
/// exactly one access and only adds fences, so every compiled form of one
/// uni-size program has the same view up to the access flags, which is
/// what lets one walk serve all of them. Fills \p RegOfEvent with each
/// read's destination register when non-null.
std::vector<TargetEvent>
formEvents(const CompiledTarget &CT,
           std::map<EventId, unsigned> *RegOfEvent = nullptr);

/// Translates a target execution back to the uni-size JavaScript candidate
/// with the same behaviour (fences dropped; RMW events map one-to-one).
UniExecution translateTargetToUni(const TargetExecution &X,
                                  const CompiledTarget &CT);

/// Bounded Thm 6.3 check for one program and target: every consistent
/// target execution must be valid uni-size JavaScript.
struct TargetCheckResult {
  uint64_t Candidates = 0;
  uint64_t Consistent = 0;
  uint64_t JsValid = 0;
  std::optional<TargetExecution> FirstFailure;
  bool holds() const { return Consistent == JsValid; }
};
TargetCheckResult checkUniCompilation(const UniProgram &P, TargetArch Arch);

} // namespace jsmm

#endif // JSMM_TARGETS_TARGETCOMPILE_H
