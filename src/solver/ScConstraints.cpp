//===- solver/ScConstraints.cpp -------------------------------------------===//

#include "solver/ScConstraints.h"

using namespace jsmm;

namespace {

/// First/second attempt rule (Fig. 4 / §3.1): for a synchronizes-with pair
/// <W,R>, no write with rangew = ranger(R) (SeqCst only for the second
/// attempt) may be strictly tot-between W and R.
void attemptConstraints(const CandidateExecution &CE, const DerivedTriple &D,
                        bool InterveningMustBeSeqCst,
                        TotProblem &P) {
  D.Sw.forEachPair([&](unsigned W, unsigned R) {
    const Event &Er = CE.Events[R];
    for (const Event &Ec : CE.Events) {
      unsigned C = Ec.Id;
      if (C == W || C == R)
        continue;
      if (InterveningMustBeSeqCst && Ec.Ord != Mode::SeqCst)
        continue;
      if (sameWriteReadRange(Ec, Er))
        P.Forbidden.push_back({W, C, R});
    }
  });
}

/// The final rule of Fig. 10: for an rf pair <W,R> with hb(W,R), no SeqCst
/// event satisfying one of the three disjuncts may be strictly tot-between.
void finalConstraints(const CandidateExecution &CE, const DerivedTriple &D,
                      TotProblem &P) {
  D.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!D.Hb.get(W, R))
      return;
    const Event &Ew = CE.Events[W];
    const Event &Er = CE.Events[R];
    for (const Event &Ec : CE.Events) {
      unsigned C = Ec.Id;
      if (C == W || C == R || Ec.Ord != Mode::SeqCst)
        continue;
      bool D1 = sameWriteReadRange(Ec, Er) && D.Sw.get(W, R);
      bool D2 = sameWriteWriteRange(Ew, Ec) && Ew.Ord == Mode::SeqCst &&
                D.Hb.get(C, R);
      bool D3 = sameWriteReadRange(Ec, Er) && D.Hb.get(W, C) &&
                Er.Ord == Mode::SeqCst;
      if (D1 || D2 || D3)
        P.Forbidden.push_back({W, C, R});
    }
  });
}

} // namespace

TotProblem
jsmm::scAtomicsProblem(const CandidateExecution &CE,
                       const DerivedTriple &D, ScRuleKind Rule) {
  TotProblem P;
  P.N = CE.numEvents();
  P.Universe = CE.allEventsMask();
  P.Must = D.Hb;
  switch (Rule) {
  case ScRuleKind::FirstAttempt:
    attemptConstraints(CE, D, /*InterveningMustBeSeqCst=*/false, P);
    break;
  case ScRuleKind::SecondAttempt:
    attemptConstraints(CE, D, /*InterveningMustBeSeqCst=*/true, P);
    break;
  case ScRuleKind::Final:
    finalConstraints(CE, D, P);
    break;
  }
  return P;
}

void jsmm::addSyntacticDeadnessEdges(const CandidateExecution &CE,
                                     const Relation &Hb, TotProblem &P) {
  // A tot edge <A,B> is critical when A is a SeqCst write and B a write,
  // or A a write and B a SeqCst read (search/Deadness's edge classes).
  // Deadness demands every critical tot edge be hb-forced, so a critical
  // non-hb pair must be ordered the other way in every solution.
  for (const Event &Ea : CE.Events)
    for (const Event &Eb : CE.Events) {
      unsigned A = Ea.Id, B = Eb.Id;
      if (A == B || Hb.get(A, B))
        continue;
      bool Critical =
          (Ea.isWrite() && Ea.Ord == Mode::SeqCst && Eb.isWrite()) ||
          (Ea.isWrite() && Eb.isRead() && Eb.Ord == Mode::SeqCst);
      if (Critical)
        P.Must.set(B, A);
    }
}
