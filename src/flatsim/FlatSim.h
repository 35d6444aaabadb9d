//===- flatsim/FlatSim.h - Operational MCA simulator (Flat substitute) ----===//
///
/// \file
/// An operational multi-copy-atomic ARMv8 simulator standing in for the
/// Flat model in the §4.1 validation experiment. Like Flat, the storage
/// subsystem is a single flat byte memory; thread subsystems may commit
/// events out of order subject to a *preserved local order*:
///
///   - overlapping same-thread accesses commit in program order;
///   - an acquire load commits before everything po-after it;
///   - everything po-before a release store commits before it, and a
///     release commits before any po-later acquire load;
///   - dmb sy / dmb ld / dmb st / isb order their architectural
///     predecessor/successor classes;
///   - address/data dependencies order the providing load before the
///     dependent access; control dependencies order it before po-later
///     stores (loads may be speculated past branches);
///   - exclusive pairs commit read first.
///
/// The simulator enumerates every commit order (linear extension of the
/// preserved order), executing against the flat memory; reads take the
/// current memory bytes, which determines reads-byte-from, and the memory
/// arrival order of writes determines coherence.
///
/// The simulator is intentionally *slightly stronger* than Flat (no store
/// forwarding; same-address load-load pairs are preserved), so every
/// behaviour it produces is architecturally allowed — the safe direction
/// for the soundness validation of the axiomatic model (axiomatic ⊇
/// operational), which is what §4.1 checks.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_FLATSIM_FLATSIM_H
#define JSMM_FLATSIM_FLATSIM_H

#include "engine/ExecutionEngine.h"

#include <functional>
#include <set>

namespace jsmm {

/// Invokes \p Visit once per distinct operational execution of \p P
/// (deduplicated across interleavings), presented as a complete
/// ArmExecution (po, rbf, co) plus its outcome. \p Visit returns false to
/// stop. \returns false if stopped early.
bool forEachFlatExecution(
    const ArmProgram &P,
    const std::function<bool(const ArmExecution &, const Outcome &)> &Visit);

/// Results of running the operational simulator on a program.
struct FlatResult {
  std::set<std::string> Outcomes;        ///< outcome strings
  uint64_t DistinctExecutions = 0;
};

FlatResult runFlat(const ArmProgram &P);

/// The preserved local order used by the simulator, exposed for tests:
/// pairs <A,B> of same-thread events that must commit in that order.
Relation flatPreservedOrder(const ArmExecution &Skeleton);

} // namespace jsmm

#endif // JSMM_FLATSIM_FLATSIM_H
