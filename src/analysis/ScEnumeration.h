//===- analysis/ScEnumeration.h - SC interleaving enumeration -------------===//
///
/// \file
/// An operational sequentially-consistent interpreter over litmus programs:
/// every outcome reachable by interleaving the threads' statements, with
/// each access executed atomically against a single shared memory.
///
/// This is the serving half of the static DRF-SC shortcut
/// (analysis/StaticAnalysis.h). For a statically-DRF program the SC
/// outcome set *is* the verdict table of every backend: the JS model
/// variants by the SC-DRF theorem (§3.2/Thm 6.1; per-access atomicity is
/// harmless because data-race-freedom makes tearing unobservable), the
/// compiled targets by Thm 6.3 sandwiched between SC and the JS table.
/// The service (LitmusService) computes the table once per such job and
/// answers every applicable column of it, single-model or differential,
/// from that one table. For racy programs it computes the SC *subset* of
/// the table and proves nothing; callers gate on the certificate.
///
/// The walk is a DFS over interleavings with two reductions that keep
/// wide corpus programs (hundreds of filler events) trivial:
///
///   - accesses touching only bytes used by a single thread are
///     "invisible": they commute with every other thread's steps, so they
///     run to completion without a scheduling branch;
///   - interleavings converging on one state (thread positions, registers,
///     memory) are explored once, via a memo of serialized states.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ANALYSIS_SCENUMERATION_H
#define JSMM_ANALYSIS_SCENUMERATION_H

#include "exec/Outcome.h"
#include "litmus/Program.h"

#include <cstdint>
#include <vector>

namespace jsmm {
namespace analysis {

/// Enumerates the SC interleaving outcomes of \p P, sorted (Outcome's
/// operator<). \p StatesExplored, when non-null, receives the number of
/// distinct scheduler states the walk visited (a deterministic effort
/// measure).
std::vector<Outcome> enumerateScOutcomes(const Program &P,
                                         uint64_t *StatesExplored = nullptr);

} // namespace analysis
} // namespace jsmm

#endif // JSMM_ANALYSIS_SCENUMERATION_H
