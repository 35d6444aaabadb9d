//===- core/SeqConsistency.h - SC-explainability of executions ------------===//
///
/// \file
/// Sequential consistency of a candidate execution, in Lamport's sense used
/// by the SC-DRF property (§3.2 of Watt et al., PLDI 2020): an execution is
/// sequentially consistent when some sequential interleaving of its events
/// — a strict total order extending sequenced-before and
/// additional-synchronizes-with — explains every read, i.e. each read byte
/// takes its value from the most recent preceding write of that byte in the
/// interleaving.
///
/// Decided by a backtracking interleaving search over a flat byte memory
/// with early pruning (a read is checked the moment it is placed). An
/// event whose writes no other unplaced event reads is placed without
/// branching.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_CORE_SEQCONSISTENCY_H
#define JSMM_CORE_SEQCONSISTENCY_H

#include "core/CandidateExecution.h"

#include <vector>

namespace jsmm {

/// \returns true if some interleaving (total order extending sb ∪ asw)
/// explains the execution's reads-byte-from justification. If \p OrderOut
/// is non-null and the execution is SC, receives a witnessing interleaving
/// as a sequence of event ids.
bool isSequentiallyConsistent(const CandidateExecution &CE,
                              std::vector<unsigned> *OrderOut = nullptr);

} // namespace jsmm

#endif // JSMM_CORE_SEQCONSISTENCY_H
