//===- armv8/ArmModel.cpp -------------------------------------------------===//

#include "armv8/ArmModel.h"

#include <algorithm>

using namespace jsmm;

namespace {

ArmDerived computeFrom(const ArmExecution &X, Relation Fr) {
  ArmDerived D;
  unsigned N = X.numEvents();
  D.Rf = X.readsFrom();
  D.Co = X.coherence();
  D.Fr = std::move(Fr);
  D.Rfe = X.externalPart(D.Rf);
  D.Coe = X.externalPart(D.Co);
  D.Fre = X.externalPart(D.Fr);
  D.Rfi = X.internalPart(D.Rf);
  D.Coi = X.internalPart(D.Co);

  D.Obs = D.Rfe.unioned(D.Coe).unioned(D.Fre);

  // The event classes, in one pass: a consistency check runs once per
  // coherence completion, millions of times per sweep.
  BitSet Writes(N), Reads(N), Acq(N), Rel(N), DmbFull(N), DmbLd(N),
      DmbSt(N), Isb(N);
  for (const ArmEvent &E : X.Events) {
    switch (E.Kind) {
    case ArmKind::Read:
      bits::set(Reads, E.Id);
      if (E.Acquire)
        bits::set(Acq, E.Id);
      break;
    case ArmKind::Write:
      bits::set(Writes, E.Id);
      if (E.Release)
        bits::set(Rel, E.Id);
      break;
    case ArmKind::DmbFull:
      bits::set(DmbFull, E.Id);
      break;
    case ArmKind::DmbLd:
      bits::set(DmbLd, E.Id);
      break;
    case ArmKind::DmbSt:
      bits::set(DmbSt, E.Id);
      break;
    case ArmKind::Isb:
      bits::set(Isb, E.Id);
      break;
    }
  }
  BitSet All = X.allEventsMask();

  const Relation &Po = X.Po;
  auto Restrict = [&](const BitSet &A, const Relation &R, const BitSet &B) {
    return R.restricted(A, B);
  };

  // dob = addr | data | ctrl;[W] | (ctrl | addr;po);[ISB];po;[R]
  //     | addr;po;[W] | (ctrl | data);coi | (addr | data);rfi
  // Dependency-free executions (every skeleton-search candidate, most
  // litmus shapes) have dob = ∅; skip its eight relation operations then —
  // consistency checks run once per coherence completion, millions of
  // times per sweep.
  bool NoDeps =
      X.AddrDep.empty() && X.DataDep.empty() && X.CtrlDep.empty();
  D.Dob = Relation(N);
  if (!NoDeps) {
    Relation CtrlOrAddrPo = X.CtrlDep.unioned(X.AddrDep.compose(Po));
    D.Dob = X.AddrDep.unioned(X.DataDep)
                .unioned(Restrict(All, X.CtrlDep, Writes))
                .unioned(CtrlOrAddrPo.intersected(
                    Relation::product(All, Isb, N)).compose(
                    Restrict(Isb, Po, Reads)))
                .unioned(X.AddrDep.compose(Restrict(All, Po, Writes)))
                .unioned(X.CtrlDep.unioned(X.DataDep).compose(D.Coi))
                .unioned(X.AddrDep.unioned(X.DataDep).compose(D.Rfi));
  }

  // aob = rmw | [range(rmw)];rfi;[A]
  D.Aob = Relation(N);
  if (!X.Rmw.empty()) {
    BitSet RmwWrites(N);
    X.Rmw.forEachPair([&](unsigned, unsigned W) { bits::set(RmwWrites, W); });
    D.Aob = X.Rmw.unioned(Restrict(RmwWrites, D.Rfi, Acq));
  }

  // bob = po;[dmb.full];po | [L];po;[A] | [R];po;[dmb.ld];po
  //     | [A];po | [W];po;[dmb.st];po;[W] | po;[L] | po;[L];coi
  // Fence-free terms only when the corresponding fence class is present.
  Relation PoL = Restrict(All, Po, Rel);
  D.Bob = Restrict(Rel, Po, Acq);
  if (bits::any(DmbFull))
    D.Bob.unionWith(
        Restrict(All, Po, DmbFull).compose(Restrict(DmbFull, Po, All)));
  if (bits::any(DmbLd))
    D.Bob.unionWith(
        Restrict(Reads, Po, DmbLd).compose(Restrict(DmbLd, Po, All)));
  D.Bob.unionWith(Restrict(Acq, Po, All));
  if (bits::any(DmbSt))
    D.Bob.unionWith(
        Restrict(Writes, Po, DmbSt).compose(Restrict(DmbSt, Po, Writes)));
  D.Bob.unionWith(PoL);
  D.Bob.unionWith(PoL.compose(D.Coi));

  D.Ob = D.Obs.unioned(D.Dob).unioned(D.Aob).unioned(D.Bob)
             .transitiveClosure();
  return D;
}

} // namespace

ArmDerived ArmDerived::compute(const ArmExecution &X) {
  return computeFrom(X, X.fromReads());
}

ArmDerived ArmDerived::computeCoPrefix(const ArmExecution &X) {
  return computeFrom(X, X.fromReadsKnownCo());
}

bool jsmm::checkArmInternal(const ArmExecution &X) {
  // Per byte location: acyclic(po-loc ∪ co ∪ rbf ∪ fr), each restricted to
  // that byte.
  for (const CoGranule &G : X.Co) {
    for (unsigned Loc = G.Begin; Loc < G.End; ++Loc) {
      BitSet Touchers = X.eventsWhere([&](const ArmEvent &E) {
        return E.Block == G.Block && E.touchesByte(Loc);
      });
      Relation PerLoc = X.Po.restricted(Touchers, Touchers);
      // co on this byte is the granule order.
      for (size_t I = 0; I < G.Order.size(); ++I)
        for (size_t J = I + 1; J < G.Order.size(); ++J)
          PerLoc.set(G.Order[I], G.Order[J]);
      // rbf and fr on this byte.
      for (const RbfEdge &E : X.Rbf) {
        if (E.Loc != Loc || X.Events[E.Writer].Block != G.Block)
          continue;
        PerLoc.set(E.Writer, E.Reader);
        auto It = std::find(G.Order.begin(), G.Order.end(), E.Writer);
        if (It == G.Order.end())
          continue; // writer outside this granule (other block/offset)
        for (auto Later = It + 1; Later != G.Order.end(); ++Later)
          PerLoc.set(E.Reader, *Later);
      }
      if (!PerLoc.isAcyclic())
        return false;
    }
  }
  return true;
}

bool jsmm::checkArmExternal(const ArmExecution &X, const ArmDerived &D) {
  (void)X;
  return D.Ob.isIrreflexive();
}

bool jsmm::checkArmAtomic(const ArmExecution &X, const ArmDerived &D) {
  return X.Rmw.intersected(D.Fre.compose(D.Coe)).empty();
}

bool jsmm::isArmConsistent(const ArmExecution &X, std::string *WhyNot) {
  auto Fail = [&](const char *Why) {
    if (WhyNot)
      *WhyNot = Why;
    return false;
  };
  if (!checkArmInternal(X))
    return Fail("internal visibility (per-byte coherence)");
  ArmDerived D = ArmDerived::compute(X);
  if (!checkArmExternal(X, D))
    return Fail("external visibility (ordered-before cycle)");
  if (!checkArmAtomic(X, D))
    return Fail("atomicity of exclusives");
  return true;
}

bool jsmm::armRefutedForEveryCo(const ArmExecution &X) {
  // checkArmInternal already skips writers missing from their granule
  // order, so it is safe on (and monotone in) a coherence prefix.
  if (!checkArmInternal(X))
    return true;
  ArmDerived D = ArmDerived::computeCoPrefix(X);
  return !checkArmExternal(X, D) || !checkArmAtomic(X, D);
}

bool jsmm::forEachConsistentCoherenceCompletion(
    ArmExecution &X, const std::function<bool()> &Visit) {
  // Root refutation: every axiom is violation-monotone in co, so a
  // violation on the forced Init-first prefix alone refutes all
  // completions, skipping the factorial walk on most inconsistent
  // executions. (Refuting again at inner nodes is not worth it at litmus
  // sizes: a prefix refutation costs about as much as the handful of leaf
  // checks it could save.)
  if (armRefutedForEveryCo(X))
    return true;
  return forEachCoherenceCompletion(X, [&] {
    if (!isArmConsistent(X))
      return true;
    return Visit();
  });
}
