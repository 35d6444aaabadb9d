//===- core/DataRace.h - JavaScript data races -----------------------------===//
///
/// \file
/// The data-race definition of Fig. 7 (Watt et al., PLDI 2020): two events
/// race when they overlap, at least one writes, they are not both
/// same-range SeqCst atomics, and they are unordered by happens-before.
/// A program is data-race-free when no valid execution contains a race.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_CORE_DATARACE_H
#define JSMM_CORE_DATARACE_H

#include "core/CandidateExecution.h"
#include "core/Validity.h"

#include <vector>

namespace jsmm {

/// \returns true if events \p A and \p B of \p CE constitute a data race
/// under the happens-before relation \p Hb (Fig. 7). \p A and \p B must be
/// distinct.
bool isDataRace(const CandidateExecution &CE, EventId A, EventId B,
                const Relation &Hb);

/// \returns every racing pair (A < B) of \p CE under \p Spec's sw
/// definition.
std::vector<std::pair<EventId, EventId>>
findDataRaces(const CandidateExecution &CE, ModelSpec Spec);

/// \returns true if \p CE contains no data race.
bool isRaceFree(const CandidateExecution &CE, ModelSpec Spec);
/// The same under \p Hb, \p CE's happens-before.
bool isRaceFree(const CandidateExecution &CE, const Relation &Hb);

} // namespace jsmm

#endif // JSMM_CORE_DATARACE_H
