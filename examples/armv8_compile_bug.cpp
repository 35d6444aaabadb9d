//===- examples/armv8_compile_bug.cpp - The §3.1 discovery, end to end ----===//
///
/// \file
/// Walks through the paper's headline bug: compile the Fig. 6 program with
/// the standard (V8) scheme, enumerate the ARMv8 behaviours of the result,
/// and find one the JavaScript specification forbids. Then apply the
/// TC39-adopted fix and watch the gap close.
///
/// Run:  build/examples/armv8_compile_bug
///
//===----------------------------------------------------------------------===//

#include "compile/TotConstruction.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"

#include <iostream>

using namespace jsmm;

int main() {
  Program P = paper::fig6Program();
  Outcome Bad = paper::fig6Outcome();

  std::cout << "The Fig. 6 program:\n"
            << "  Thread 0: Atomics.store(b,0,1); r1 = Atomics.load(b,1)\n"
            << "  Thread 1: Atomics.store(b,1,1); Atomics.store(b,1,2);\n"
            << "            b[0] = 2; r2 = Atomics.load(b,0)\n\n";

  // 1. The JavaScript specification (10th ed.) forbids r1 = 1 ∧ r2 = 1.
  EnumerationResult JsOrig =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::original()));
  std::cout << "1. Original JS model allows " << Bad.toString() << "? "
            << (JsOrig.allows(Bad) ? "yes" : "NO — forbidden") << "\n";

  // 2. Compile with the C++-SC scheme: SC -> ldar/stlr, Un -> ldr/str.
  CompiledProgram CP = compileToArm(P);
  ArmEnumerationResult Arm = ExecutionEngine().enumerate(CP.Arm, Armv8Model());
  std::cout << "2. ARMv8 allows it for the compiled program? "
            << (Arm.allows(Bad) ? "YES — the scheme is broken" : "no")
            << "\n";

  // 3. Exhibit the offending ARM execution and its JavaScript translation.
  auto It = Arm.Allowed.find(Bad);
  if (It != Arm.Allowed.end()) {
    std::cout << "\n   The architecturally-allowed execution (Fig. 6b):\n"
              << It->second.toString();
    TranslationResult TR = translateExecution(It->second, CP);
    std::cout << "   ...translates to the JS candidate (Fig. 6a):\n"
              << TR.Js.toString();
    std::cout << "   JS-valid for some tot [original]? "
              << (isValidForSomeTot(TR.Js, ModelSpec::original())
                      ? "yes"
                      : "no — dead for every total order")
              << "\n";
  }

  // 4. The fix: weaken Sequentially Consistent Atomics (Fig. 10).
  EnumerationResult JsRev =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  std::cout << "\n3. Revised JS model allows it? "
            << (JsRev.allows(Bad) ? "yes — the scheme is supported again"
                                  : "no")
            << "\n";

  // 5. And the whole-scheme verdicts.
  CompileCheckResult Orig =
      checkCompilationForProgram(P, ModelSpec::original());
  CompileCheckResult Rev = checkCompilationForProgram(P, ModelSpec::revised());
  std::cout << "\n4. Compilation-correctness check on this program:\n"
            << "   original model: " << Orig.ExistentiallyValid << "/"
            << Orig.ArmConsistent << " ARM executions justified -> "
            << (Orig.holds() ? "holds" : "BROKEN") << "\n"
            << "   revised model:  " << Rev.ExistentiallyValid << "/"
            << Rev.ArmConsistent << " justified ("
            << Rev.ConstructionWitnessed
            << " via the proof's tot construction) -> "
            << (Rev.holds() ? "holds" : "broken") << "\n";
  return 0;
}
