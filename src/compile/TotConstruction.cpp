//===- compile/TotConstruction.cpp ----------------------------------------===//

#include "compile/TotConstruction.h"

#include "engine/ExecutionEngine.h"

using namespace jsmm;

bool jsmm::constructTot(const TranslationResult &TR, const ArmExecution &X,
                        Relation *TotOut) {
  const CandidateExecution &Js = TR.Js;
  unsigned N = Js.numEvents();
  Relation Base = Js.Sb.unioned(Js.Asw);
  // Init events first.
  for (const Event &E : Js.Events)
    if (E.Ord == Mode::Init)
      for (unsigned B = 0; B < N; ++B)
        if (B != E.Id && Js.Events[B].Ord != Mode::Init)
          Base.set(E.Id, B);

  // obs ∩ (L∪A)², mapped through the event translation.
  ArmDerived D = ArmDerived::compute(X);
  BitSet LorA = X.eventsWhere([](const ArmEvent &E) {
    return (E.isWrite() && E.Release) || (E.isRead() && E.Acquire);
  });
  D.Obs.restricted(LorA, LorA).forEachPair([&](unsigned A, unsigned B) {
    EventId JA = TR.JsOfArm[A];
    EventId JB = TR.JsOfArm[B];
    if (JA != JB)
      Base.set(JA, JB);
  });

  // topologicalOrder doubles as the acyclicity check: a cyclic base has no
  // linearisation, so the construction fails.
  std::optional<std::vector<unsigned>> Order = Base.topologicalOrder();
  if (!Order)
    return false;
  *TotOut = totalOrderOver(*Order, N);
  return true;
}

CompileCheckResult jsmm::checkCompilationForProgram(const Program &Js,
                                                    ModelSpec Spec,
                                                    SolverConfig Solver) {
  CompileCheckResult Result;
  CompiledProgram CP = compileToArm(Js);
  ExecutionEngine().forEachArmCandidate(CP.Arm, [&](const ArmExecution &X,
                                                    const Outcome &O) {
    (void)O;
    ++Result.ArmCandidates;
    if (!isArmConsistent(X))
      return true;
    ++Result.ArmConsistent;
    TranslationResult TR = translateExecution(X, CP);

    bool Witnessed = false;
    Relation Tot;
    if (constructTot(TR, X, &Tot)) {
      CandidateExecution WithTot = TR.Js;
      WithTot.Tot = Tot;
      Witnessed = isValid(WithTot, Spec);
    }
    if (Witnessed)
      ++Result.ConstructionWitnessed;

    bool Exists = Witnessed || isValidForSomeTot(TR.Js, Spec,
                                                 /*TotOut=*/nullptr,
                                                 totSolver(Solver));
    if (Exists)
      ++Result.ExistentiallyValid;

    if (!Exists && !Result.FirstFailure) {
      Result.FirstFailure =
          CompileFailure{X, TR.Js, "ARM-consistent execution has no valid "
                                   "JavaScript justification"};
    }
    return true;
  });
  return Result;
}
