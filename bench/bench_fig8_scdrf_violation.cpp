//===- bench_fig8_scdrf_violation.cpp - Experiment E3 (Fig. 8) ------------===//
///
/// \file
/// Regenerates the §3.2 SC-DRF violation: the Fig. 8 program is data-race-
/// free, yet the original model admits an outcome no sequential
/// interleaving explains; the revised model restores SC-DRF.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

int main() {
  Table T("E3: the SC-DRF violation",
          "Watt et al. PLDI 2020, Fig. 7/Fig. 8, section 3.2");

  // Candidate-execution level.
  T.check("Fig. 8 execution valid [original]", true,
          isValidForSomeTot(fig8Execution(), ModelSpec::original()));
  T.check("Fig. 8 execution race-free", true,
          isRaceFree(fig8Execution(), ModelSpec::original()));
  T.check("Fig. 8 execution sequentially consistent", false,
          isSequentiallyConsistent(fig8Execution()));
  T.check("Fig. 8 execution valid [revised]", false,
          isValidForSomeTot(fig8Execution(), ModelSpec::revised()));

  // Program level: the SC-DRF property itself.
  ScDrfReport Orig =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::original()));
  T.check("program is data-race-free [original]", true, Orig.DataRaceFree);
  T.check("all valid executions SC [original]", false,
          Orig.AllValidExecutionsSC);
  T.check("SC-DRF violated by the original model", false, Orig.holds());

  ScDrfReport Rev =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::revised()));
  T.check("SC-DRF restored by the revised model", true, Rev.holds());
  T.check("all valid executions SC [revised]", true,
          Rev.AllValidExecutionsSC);

  // The observable outcome.
  EnumerationResult OrigOut = ExecutionEngine().enumerate(
      fig8Program(), JsModel(ModelSpec::original()));
  EnumerationResult RevOut =
      ExecutionEngine().enumerate(fig8Program(), JsModel(ModelSpec::revised()));
  T.check("outcome r=2 after reading 1 allowed [original]", true,
          OrigOut.allows(fig8Outcome()));
  T.check("outcome r=2 after reading 1 forbidden [revised]", false,
          RevOut.allows(fig8Outcome()));

  // The ARM fix alone must NOT restore SC-DRF (the fixes are independent).
  ScDrfReport ArmOnly =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::armFixOnly()));
  T.check("arm-fix-only model still violates SC-DRF", false,
          ArmOnly.holds());

  return T.finish();
}
