//===- bench_fig14_tearfree.cpp - Experiment E14 (Fig. 14, §6.4) ----------===//
///
/// \file
/// Regenerates the Fig. 14 tearing behaviour: a 16-bit tear-free read may
/// mix one byte of a racing 16-bit tear-free write with one byte of the
/// Init event under the specification's Tear-Free Reads rule — rf⁻¹ is not
/// functional even for well-behaved typed-array programs. The strengthened
/// rule of §6.4 counts Init and forbids the mix.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"
#include "unisize/Reduction.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

int main() {
  Table T("E14: tearing involving the Init event",
          "Watt et al. PLDI 2020, Fig. 14, section 6.4");

  // Candidate-execution level.
  T.check("Fig. 14 execution valid under the spec rule (weak)", true,
          isValidForSomeTot(fig14Execution(), ModelSpec::revised()));
  T.check("forbidden under the strengthened rule", false,
          isValidForSomeTot(fig14Execution(),
                            ModelSpec::revisedStrongTearFree()));
  T.check("the mixed value is not sequentially consistent", false,
          isSequentiallyConsistent(fig14Execution()));

  // Program level: Fig. 14's program through the enumerator.
  Program P(32);
  P.Name = "fig14";
  ThreadBuilder T0 = P.thread();
  T0.load(Acc::u16(0)); // r = b[0]
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u16(0), 0x0101); // b[0] = 0x0101
  Outcome Torn = outcome({{0, 0, 0x0001}});
  EnumerationResult Weak =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EnumerationResult Strong = ExecutionEngine().enumerate(
      P, JsModel(ModelSpec::revisedStrongTearFree()));
  T.check("outcome r=0x0001 allowed with the spec rule", true,
          Weak.allows(Torn));
  T.check("outcome r=0x0100 (other mix) allowed with the spec rule", true,
          Weak.allows(outcome({{0, 0, 0x0100}})));
  T.check("outcome r=0x0001 forbidden with the strong rule", false,
          Strong.allows(Torn));
  T.check("clean outcomes unaffected: r=0", true,
          Strong.allows(outcome({{0, 0, 0}})));
  T.check("clean outcomes unaffected: r=0x0101", true,
          Strong.allows(outcome({{0, 0, 0x0101}})));

  // rf⁻¹ functionality: under the strong rule every valid execution of
  // this (single-typed-array, tear-free) program is uni-size reducible.
  uint64_t ValidWeak = 0, WeakNonFunctional = 0;
  uint64_t ValidStrong = 0, StrongNonFunctional = 0;
  ExecutionEngine().forEachCandidate(P, [&](const CandidateExecution &CE,
                                            const Outcome &O) {
    (void)O;
    if (isValidForSomeTot(CE, ModelSpec::revised())) {
      ++ValidWeak;
      if (!isUniSizeReducible(CE))
        ++WeakNonFunctional;
    }
    if (isValidForSomeTot(CE, ModelSpec::revisedStrongTearFree())) {
      ++ValidStrong;
      if (!isUniSizeReducible(CE))
        ++StrongNonFunctional;
    }
    return true;
  });
  T.row("valid executions with non-functional rf-1 [weak rule]", "> 0",
        std::to_string(WeakNonFunctional) + "/" + std::to_string(ValidWeak),
        WeakNonFunctional > 0);
  T.row("valid executions with non-functional rf-1 [strong rule]", "0",
        std::to_string(StrongNonFunctional) + "/" +
            std::to_string(ValidStrong),
        StrongNonFunctional == 0);

  return T.finish();
}
