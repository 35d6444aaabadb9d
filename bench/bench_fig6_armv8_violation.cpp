//===- bench_fig6_armv8_violation.cpp - Experiments E2/E5 (Fig. 5/6) ------===//
///
/// \file
/// Regenerates the §3.1 discovery end-to-end:
///   1. the Fig. 6a candidate execution is invalid in the original
///      JavaScript model for *every* total order, while the revised model
///      accepts it;
///   2. no alternative candidate of the Fig. 6 program justifies the
///      outcome under the original model (program-level verdict);
///   3. the compiled program's Fig. 6b execution is allowed by the
///      mixed-size ARMv8 model (the hardware-proxy verdict of §3.3);
///   4. the compilation check fails for the original model and passes,
///      with the §5.3 tot construction, for the revised one.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "compile/TotConstruction.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

int main() {
  Table T("E2/E5: the ARMv8 compilation scheme violation",
          "Watt et al. PLDI 2020, Fig. 5, Fig. 6, sections 3.1 and 3.3");

  // (1) Candidate-execution level.
  T.check("Fig. 6a invalid for all tot [original]", true,
          isInvalidForAllTot(fig6aExecution(), ModelSpec::original()));
  T.check("Fig. 6a valid for some tot [revised]", true,
          isValidForSomeTot(fig6aExecution(), ModelSpec::revised()));
  T.check("Fig. 6a valid for some tot [arm-fix-only]", true,
          isValidForSomeTot(fig6aExecution(), ModelSpec::armFixOnly()));

  // (2) Program level: no candidate justifies the outcome originally.
  EnumerationResult Orig = ExecutionEngine().enumerate(
      fig6Program(), JsModel(ModelSpec::original()));
  EnumerationResult Rev =
      ExecutionEngine().enumerate(fig6Program(), JsModel(ModelSpec::revised()));
  T.check("program outcome r1=1,r2=1 forbidden [original]", false,
          Orig.allows(fig6Outcome()));
  T.check("program outcome r1=1,r2=1 allowed [revised]", true,
          Rev.allows(fig6Outcome()));
  T.note("original model: " + std::to_string(Orig.Allowed.size()) +
         " outcomes from " + std::to_string(Orig.CandidatesConsidered) +
         " candidates; revised: " + std::to_string(Rev.Allowed.size()));

  // (3) ARM side: the compiled program exhibits the outcome (§3.3's
  // hardware observation, reproduced on the model).
  CompiledProgram CP = compileToArm(fig6Program());
  ArmEnumerationResult Arm = ExecutionEngine().enumerate(CP.Arm, Armv8Model());
  Outcome ArmOutcome = fig6Outcome();
  T.check("compiled (ldar/stlr) program allows the outcome on ARMv8", true,
          Arm.allows(ArmOutcome));

  // (4) Whole-scheme verdicts.
  CompileCheckResult Bad =
      checkCompilationForProgram(fig6Program(), ModelSpec::original());
  T.check("compilation scheme broken under the original model", false,
          Bad.holds());
  T.note("ARM-consistent executions: " + std::to_string(Bad.ArmConsistent) +
         ", JS-justifiable: " + std::to_string(Bad.ExistentiallyValid));
  CompileCheckResult Good =
      checkCompilationForProgram(fig6Program(), ModelSpec::revised());
  T.check("compilation scheme holds under the revised model", true,
          Good.holds());
  T.check("the sec. 5.3 tot construction witnesses every execution", true,
          Good.constructionAlwaysWorks());

  return T.finish();
}
