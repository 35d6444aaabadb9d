//===- unisize/Reduction.cpp ----------------------------------------------===//

#include "unisize/Reduction.h"

#include "engine/ExecutionEngine.h"
#include "support/Str.h"

#include <map>
#include <set>

using namespace jsmm;

bool jsmm::isUniSizeReducible(const CandidateExecution &CE,
                              std::string *WhyNot) {
  auto Fail = [&](const std::string &Why) {
    if (WhyNot)
      *WhyNot = Why;
    return false;
  };
  // No partial overlaps among non-Init events.
  for (const Event &A : CE.Events) {
    if (A.Ord == Mode::Init)
      continue;
    for (const Event &B : CE.Events) {
      if (B.Ord == Mode::Init || B.Id <= A.Id)
        continue;
      if (!overlap(A, B))
        continue;
      bool SameFootprint = A.Block == B.Block &&
                           A.rangeBegin() == B.rangeBegin() &&
                           A.rangeEnd() == B.rangeEnd();
      if (!SameFootprint)
        return Fail("events " + std::to_string(A.Id) + " and " +
                    std::to_string(B.Id) + " partially overlap");
    }
  }
  // rf⁻¹ functional: all bytes of a read justified by one writer.
  for (const Event &R : CE.Events) {
    if (!R.isRead())
      continue;
    std::set<EventId> Writers;
    for (const RbfEdge &E : CE.Rbf)
      if (E.Reader == R.Id)
        Writers.insert(E.Writer);
    if (Writers.size() > 1)
      return Fail("read " + std::to_string(R.Id) + " tears (" +
                  std::to_string(Writers.size()) + " writers)");
  }
  return true;
}

ReductionResult jsmm::reduceToUniSize(const CandidateExecution &CE) {
  assert(isUniSizeReducible(CE) && "execution is not uni-size reducible");
  ReductionResult RR;
  RR.UniOfMixed.assign(CE.numEvents(), -1);

  // Abstract locations: one per distinct non-Init footprint.
  std::map<std::tuple<unsigned, unsigned, unsigned>, unsigned> LocOf;
  for (const Event &E : CE.Events) {
    if (E.Ord == Mode::Init)
      continue;
    auto Key = std::make_tuple(E.Block, E.rangeBegin(), E.rangeEnd());
    if (!LocOf.count(Key))
      LocOf.emplace(Key, static_cast<unsigned>(LocOf.size()));
  }

  std::vector<UniEvent> UniEvents;
  // One Init per abstract location, first.
  std::vector<EventId> InitOfLoc(LocOf.size());
  for (unsigned L = 0; L < LocOf.size(); ++L) {
    InitOfLoc[L] = static_cast<EventId>(UniEvents.size());
    UniEvents.push_back(
        makeUniInit(static_cast<EventId>(UniEvents.size()), L));
  }
  // Non-Init events in id order.
  for (const Event &E : CE.Events) {
    if (E.Ord == Mode::Init)
      continue;
    unsigned Loc =
        LocOf.at(std::make_tuple(E.Block, E.rangeBegin(), E.rangeEnd()));
    UniEvent U;
    U.Id = static_cast<EventId>(UniEvents.size());
    U.Thread = E.Thread;
    U.Ord = E.Ord;
    U.Loc = Loc;
    U.Reads = E.isRead();
    U.Writes = E.isWrite();
    U.ReadVal = valueOfBytes(E.ReadBytes);
    U.WriteVal = valueOfBytes(E.WriteBytes);
    RR.UniOfMixed[E.Id] = static_cast<int>(U.Id);
    UniEvents.push_back(U);
  }

  RR.Uni = UniExecution(std::move(UniEvents));
  CE.Sb.forEachPair([&](unsigned A, unsigned B) {
    RR.Uni.Sb.set(RR.UniOfMixed[A], RR.UniOfMixed[B]);
  });
  CE.Asw.forEachPair([&](unsigned A, unsigned B) {
    RR.Uni.Asw.set(RR.UniOfMixed[A], RR.UniOfMixed[B]);
  });
  for (const Event &R : CE.Events) {
    if (!R.isRead())
      continue;
    // The unique writer (reducibility guarantees there is exactly one).
    for (const RbfEdge &E : CE.Rbf) {
      if (E.Reader != R.Id)
        continue;
      int UniR = RR.UniOfMixed[R.Id];
      const Event &W = CE.Events[E.Writer];
      if (W.Ord == Mode::Init)
        RR.Uni.Rf.set(InitOfLoc[RR.Uni.Events[UniR].Loc], UniR);
      else
        RR.Uni.Rf.set(RR.UniOfMixed[E.Writer], UniR);
      break;
    }
  }

  if (CE.hasTot()) {
    // Uni Inits first (in location order), then the mixed tot order. A
    // cyclic Tot is malformed input — leave the uni execution without a
    // tot rather than building one from a truncated order.
    if (std::optional<std::vector<unsigned>> MixedOrder =
            CE.Tot.topologicalOrder()) {
      std::vector<unsigned> Order;
      for (EventId I : InitOfLoc)
        Order.push_back(I);
      for (unsigned MixedId : *MixedOrder)
        if (RR.UniOfMixed[MixedId] >= 0)
          Order.push_back(static_cast<unsigned>(RR.UniOfMixed[MixedId]));
      RR.Uni.Tot = totalOrderOver(Order, RR.Uni.numEvents());
    }
  }
  return RR;
}

ReductionScan jsmm::scanReductionEquivalence(const ExecutionEngine &Engine,
                                             const Program &P, ModelSpec Spec,
                                             SolverConfig Solver) {
  ReductionScan Scan;
  const TotSolver &S = totSolver(Solver);
  Engine.forEachCandidate(
      P, [&](const CandidateExecution &CE, const Outcome &O) {
        (void)O;
        ++Scan.Candidates;
        if (!isUniSizeReducible(CE)) {
          ++Scan.Skipped; // e.g. tearing against Init: outside the theorem
          return true;
        }
        ++Scan.Reducible;
        ReductionResult RR = reduceToUniSize(CE);
        bool Mixed = isValidForSomeTot(CE, Spec, /*TotOut=*/nullptr, S);
        bool Uni = isUniValidForSomeTot(RR.Uni, /*TotOut=*/nullptr, S);
        if (Mixed != Uni)
          ++Scan.Mismatches;
        return true;
      });
  return Scan;
}
