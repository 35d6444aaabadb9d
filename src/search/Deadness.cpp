//===- search/Deadness.cpp ------------------------------------------------===//

#include "search/Deadness.h"

#include "solver/ScConstraints.h"

using namespace jsmm;

namespace {

/// Critical edge classes: W_SC -> W_any and W_any -> R_SC (the tot edges
/// the Sequentially Consistent Atomics shapes are built from).
bool criticalEdgesAreHbForced(const CandidateExecution &CE,
                              const Relation &Tot, const Relation &Hb) {
  bool Forced = true;
  Tot.forEachPair([&](unsigned A, unsigned B) {
    if (!Forced)
      return;
    const Event &Ea = CE.Events[A];
    const Event &Eb = CE.Events[B];
    bool Critical =
        (Ea.isWrite() && Ea.Ord == Mode::SeqCst && Eb.isWrite()) ||
        (Ea.isWrite() && Eb.isRead() && Eb.Ord == Mode::SeqCst);
    if (Critical && !Hb.get(A, B))
      Forced = false;
  });
  return Forced;
}

} // namespace

bool jsmm::isSyntacticallyDeadCounterExample(const CandidateExecution &CE,
                                             ModelSpec Spec) {
  assert(CE.hasTot() && "syntactic deadness inspects a concrete tot");
  if (isValid(CE, Spec))
    return false;
  return criticalEdgesAreHbForced(CE, CE.Tot, CE.derived(Spec.Sw).Hb);
}

bool jsmm::existsSyntacticallyDeadTot(const CandidateExecution &CE,
                                      ModelSpec Spec, Relation *TotOut,
                                      const TotSolver &Solver) {
  const DerivedTriple &D = CE.derived(Spec.Sw);
  // Invalidity through a tot-independent axiom is dead by definition.
  // (The derived hb is transitively closed: irreflexivity is acyclicity.)
  if (!checkTotIndependentAxioms(CE, D, Spec)) {
    if (D.Hb.isIrreflexive()) {
      if (TotOut)
        *TotOut = totalOrderOver(
            lexSmallestExtension(D.Hb, CE.allEventsMask()), CE.numEvents());
      return true;
    }
    return false; // no well-formed tot at all
  }
  if (!D.Hb.isIrreflexive())
    return false;
  // A tot is syntactically dead iff it contains every anti-critical forced
  // edge (criticalEdgesAreHbForced), so the criterion folds into the
  // must-order and the question becomes the plain refutation dual.
  TotProblem P = scAtomicsProblem(CE, D, Spec.Sc);
  addSyntacticDeadnessEdges(CE, D.Hb, P);
  return Solver.existsViolatingExtension(P, TotOut);
}

bool jsmm::existsSyntacticallyDeadTot(const CandidateExecution &CE,
                                      ModelSpec Spec, Relation *TotOut) {
  return existsSyntacticallyDeadTot(CE, Spec, TotOut, defaultTotSolver());
}

bool jsmm::isSemanticallyDead(const CandidateExecution &CE, ModelSpec Spec,
                              const TotSolver &Solver) {
  return isInvalidForAllTot(CE, Spec, Solver);
}

bool jsmm::isSemanticallyDead(const CandidateExecution &CE, ModelSpec Spec) {
  return isInvalidForAllTot(CE, Spec);
}
