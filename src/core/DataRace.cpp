//===- core/DataRace.cpp --------------------------------------------------===//

#include "core/DataRace.h"

using namespace jsmm;

bool jsmm::isDataRace(const CandidateExecution &CE, EventId A, EventId B,
                      const Relation &Hb) {
  assert(A != B && "a race is between two distinct events");
  const Event &Ea = CE.Events[A];
  const Event &Eb = CE.Events[B];
  // Not both same-range SeqCst atomics: at least one Unordered, or ranges
  // differ. (Init events are hb-before every overlapping event, so they can
  // never appear in a race.)
  bool NotBothSameRangeSc =
      Ea.Ord == Mode::Unordered || Eb.Ord == Mode::Unordered ||
      Ea.rangeBegin() != Eb.rangeBegin() || Ea.rangeEnd() != Eb.rangeEnd() ||
      Ea.Block != Eb.Block;
  if (!NotBothSameRangeSc)
    return false;
  if (!overlap(Ea, Eb))
    return false;
  if (!Ea.isWrite() && !Eb.isWrite())
    return false;
  return !Hb.get(A, B) && !Hb.get(B, A);
}

std::vector<std::pair<EventId, EventId>>
jsmm::findDataRaces(const CandidateExecution &CE, ModelSpec Spec) {
  Relation Hb = CE.happensBefore(Spec.Sw);
  std::vector<std::pair<EventId, EventId>> Races;
  for (EventId A = 0; A < CE.numEvents(); ++A)
    for (EventId B = A + 1; B < CE.numEvents(); ++B)
      if (isDataRace(CE, A, B, Hb))
        Races.emplace_back(A, B);
  return Races;
}

bool jsmm::isRaceFree(const CandidateExecution &CE, ModelSpec Spec) {
  return isRaceFree(CE, CE.happensBefore(Spec.Sw));
}

bool jsmm::isRaceFree(const CandidateExecution &CE, const Relation &Hb) {
  for (EventId A = 0; A < CE.numEvents(); ++A)
    for (EventId B = A + 1; B < CE.numEvents(); ++B)
      if (isDataRace(CE, A, B, Hb))
        return false;
  return true;
}
