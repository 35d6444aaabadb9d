//===- core/Validity.cpp --------------------------------------------------===//

#include "core/Validity.h"

#include "solver/ScConstraints.h"

using namespace jsmm;

DerivedRelations DerivedRelations::compute(const CandidateExecution &CE,
                                           SwDefKind Def) {
  DerivedRelations D;
  static_cast<DerivedTriple &>(D) = CE.derived(Def);
  return D;
}

bool jsmm::checkHbConsistency1(const CandidateExecution &CE,
                               const DerivedTriple &D) {
  return CE.Tot.contains(D.Hb);
}

bool jsmm::checkHbConsistency2(const CandidateExecution &CE,
                               const DerivedTriple &D) {
  bool Ok = true;
  D.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (D.Hb.get(R, W))
      Ok = false;
  });
  (void)CE;
  return Ok;
}

bool jsmm::checkHbConsistency3(const CandidateExecution &CE,
                               const DerivedTriple &D) {
  for (const RbfEdge &E : CE.Rbf) {
    // Look for a "newer" write of byte E.Loc strictly hb-between the writer
    // and the reader.
    bool Newer = !bits::forEachWhile(D.Hb.row(E.Writer), [&](unsigned C) {
      return !D.Hb.get(C, E.Reader) || !CE.Events[C].writesByte(E.Loc);
    });
    if (Newer)
      return false;
  }
  return true;
}

bool jsmm::checkTearFreeReads(const CandidateExecution &CE,
                              const DerivedTriple &D,
                              TearRuleKind Rule) {
  for (const Event &R : CE.Events) {
    if (!R.isRead() || !R.TearFree)
      continue;
    unsigned MatchingWriters = 0;
    bits::forEach(D.Rf.column(R.Id), [&](unsigned W) {
      const Event &Ew = CE.Events[W];
      if (!Ew.TearFree)
        return;
      bool Counts = sameWriteReadRange(Ew, R);
      if (Rule == TearRuleKind::Strong)
        Counts = Counts || Ew.Ord == Mode::Init;
      if (Counts)
        ++MatchingWriters;
    });
    if (MatchingWriters > 1)
      return false;
  }
  return true;
}

namespace {

/// First/second attempt rule: for every synchronizes-with pair <Ew,Er>,
/// there is no write E'w (SeqCst only, for the second attempt) with
/// rangew(E'w) = ranger(Er) strictly tot-between Ew and Er.
bool checkScAtomicsAttempt(const CandidateExecution &CE,
                           const DerivedTriple &D, const Relation &Tot,
                           bool InterveningMustBeSeqCst) {
  bool Ok = true;
  D.Sw.forEachPair([&](unsigned W, unsigned R) {
    if (!Ok)
      return;
    const Event &Er = CE.Events[R];
    bits::forEachWhile(Tot.row(W) & Tot.column(R), [&](unsigned C) {
      const Event &Ec = CE.Events[C];
      if (InterveningMustBeSeqCst && Ec.Ord != Mode::SeqCst)
        return true;
      if (sameWriteReadRange(Ec, Er)) {
        Ok = false;
        return false;
      }
      return true;
    });
  });
  return Ok;
}

/// The final rule of Fig. 10.
bool checkScAtomicsFinal(const CandidateExecution &CE,
                         const DerivedTriple &D, const Relation &Tot) {
  bool Ok = true;
  D.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!Ok || !D.Hb.get(W, R))
      return;
    const Event &Ew = CE.Events[W];
    const Event &Er = CE.Events[R];
    bits::forEachWhile(Tot.row(W) & Tot.column(R), [&](unsigned C) {
      const Event &Ec = CE.Events[C];
      if (Ec.Ord != Mode::SeqCst)
        return true;
      bool D1 = sameWriteReadRange(Ec, Er) && D.Sw.get(W, R);
      bool D2 = sameWriteWriteRange(Ew, Ec) && Ew.Ord == Mode::SeqCst &&
                D.Hb.get(C, R);
      bool D3 = sameWriteReadRange(Ec, Er) && D.Hb.get(W, C) &&
                Er.Ord == Mode::SeqCst;
      if (D1 || D2 || D3) {
        Ok = false;
        return false;
      }
      return true;
    });
  });
  return Ok;
}

} // namespace

bool jsmm::checkScAtomics(const CandidateExecution &CE,
                          const DerivedTriple &D, ScRuleKind Rule,
                          const Relation &Tot) {
  switch (Rule) {
  case ScRuleKind::FirstAttempt:
    return checkScAtomicsAttempt(CE, D, Tot,
                                 /*InterveningMustBeSeqCst=*/false);
  case ScRuleKind::SecondAttempt:
    return checkScAtomicsAttempt(CE, D, Tot,
                                 /*InterveningMustBeSeqCst=*/true);
  case ScRuleKind::Final:
    return checkScAtomicsFinal(CE, D, Tot);
  }
  return false;
}

bool jsmm::checkTotIndependentAxioms(const CandidateExecution &CE,
                                     const DerivedTriple &D,
                                     ModelSpec Spec, std::string *WhyNot) {
  auto Fail = [&](const char *Axiom) {
    if (WhyNot)
      *WhyNot = Axiom;
    return false;
  };
  if (!checkHbConsistency2(CE, D))
    return Fail("happens-before consistency (2)");
  if (!checkHbConsistency3(CE, D))
    return Fail("happens-before consistency (3)");
  if (!checkTearFreeReads(CE, D, Spec.Tear))
    return Fail("tear-free reads");
  return true;
}

bool jsmm::isValid(const CandidateExecution &CE, ModelSpec Spec,
                   std::string *WhyNot) {
  assert(CE.Tot.size() == CE.numEvents() &&
         "isValid requires a tot witness; use isValidForSomeTot otherwise");
  const DerivedTriple &D = CE.derived(Spec.Sw);
  if (!checkTotIndependentAxioms(CE, D, Spec, WhyNot))
    return false;
  if (!checkHbConsistency1(CE, D)) {
    if (WhyNot)
      *WhyNot = "happens-before consistency (1)";
    return false;
  }
  if (!checkScAtomics(CE, D, Spec.Sc, CE.Tot)) {
    if (WhyNot)
      *WhyNot = "sequentially consistent atomics";
    return false;
  }
  return true;
}

bool jsmm::isValidForSomeTot(const CandidateExecution &CE, ModelSpec Spec,
                             Relation *TotOut,
                             const TotSolver &Solver) {
  const DerivedTriple &D = CE.derived(Spec.Sw);
  if (!checkTotIndependentAxioms(CE, D, Spec))
    return false;
  // HBC1 forces tot ⊇ hb; if hb is cyclic no tot exists. The derived hb
  // is transitively closed, so irreflexivity is acyclicity.
  if (!D.Hb.isIrreflexive())
    return false;
  TotProblem P = scAtomicsProblem(CE, D, Spec.Sc);
  return Solver.existsExtension(P, TotOut);
}

bool jsmm::isValidForSomeTot(const CandidateExecution &CE, ModelSpec Spec,
                             Relation *TotOut) {
  return isValidForSomeTot(CE, Spec, TotOut, defaultTotSolver());
}

bool jsmm::isInvalidForAllTot(const CandidateExecution &CE,
                              ModelSpec Spec, const TotSolver &Solver) {
  return !isValidForSomeTot(CE, Spec, /*TotOut=*/nullptr, Solver);
}

bool jsmm::isInvalidForAllTot(const CandidateExecution &CE, ModelSpec Spec) {
  return isInvalidForAllTot(CE, Spec, defaultTotSolver());
}

// Explicit instantiation for both capacity tiers.
