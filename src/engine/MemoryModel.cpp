//===- engine/MemoryModel.cpp ---------------------------------------------===//

#include "engine/MemoryModel.h"

#include "solver/ScConstraints.h"

#include <algorithm>
#include <functional>

using namespace jsmm;

bool JsModel::allows(const CandidateExecution &CE, Relation *TotOut) const {
  return isValidForSomeTot(CE, Spec, TotOut, totSolver(Solver));
}

bool JsModel::allows(const CandidateExecution &CE, const DerivedTriple &D,
                     Relation *TotOut) const {
  return isValidForSomeTot(CE, D, Spec, TotOut, totSolver(Solver));
}

bool JsModel::refutableForSomeTot(const CandidateExecution &CE,
                                  Relation *TotOut) const {
  DerivedTriple D = CE.derived(Spec.Sw);
  if (!D.Hb.isIrreflexive())
    return false; // no well-formed tot exists at all (hb is closed)
  if (!checkTotIndependentAxioms(CE, D, Spec)) {
    if (TotOut)
      *TotOut = totalOrderOver(lexSmallestExtension(D.Hb, CE.allEventsMask()),
                               CE.numEvents());
    return true;
  }
  TotProblem P = scAtomicsProblem(CE, D, Spec.Sc);
  return totSolver(Solver).existsViolatingExtension(P, TotOut);
}

bool Armv8Model::allows(const ArmExecution &X) const {
  return isArmConsistent(X);
}

bool Armv8Model::allowsForSomeCo(const ArmExecution &X,
                                 ArmExecution *Witness) const {
  // The pruned walk refutes whole coherence subtrees on their prefix
  // (every axiom is violation-monotone in co), skipping most of the
  // factorial completion search in the expensive "no coherence works"
  // direction the §5.2 sweep hits millions of times; its visitor sees
  // exactly the consistent completions.
  ArmExecution Work = X;
  Work.Co = Work.computeGranules();
  bool Found = false;
  forEachConsistentCoherenceCompletion(Work, [&] {
    if (Witness)
      *Witness = Work;
    Found = true;
    return false;
  });
  return Found;
}
