//===- bench_sec63_unisize_reduction.cpp - Experiment E12 (Fig. 12) -------===//
///
/// \file
/// Regenerates the uni-size reduction result of §6.3: on executions with no
/// partial overlaps and no tearing (rf⁻¹ functional), validity in the
/// mixed-size revised model coincides with validity in the uni-size model
/// of Fig. 12 — checked exhaustively over the executions of a program
/// family and over every tot of selected executions.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"
#include "support/LinearExtensions.h"
#include "unisize/Reduction.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

int main() {
  Table T("E12: mixed-size to uni-size reduction",
          "Watt et al. PLDI 2020, Fig. 12, sections 6.3-6.4");

  std::vector<Program> Family;
  Family.push_back(fig1Program());
  Family.push_back(fig8Program());
  {
    Program P(8);
    P.Name = "sb";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    T0.load(Acc::u32(4).sc());
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(4), 1);
    T1.load(Acc::u32(0));
    Family.push_back(P);
  }
  {
    Program P(4);
    P.Name = "rmw";
    ThreadBuilder T0 = P.thread();
    T0.exchange(Acc::u32(0), 1);
    ThreadBuilder T1 = P.thread();
    T1.exchange(Acc::u32(0), 2);
    Family.push_back(P);
  }

  uint64_t Checked = 0, Skipped = 0, Mismatches = 0;
  ExecutionEngine Engine;
  double Ms = timedMs([&] {
    for (const Program &P : Family) {
      ReductionScan Scan =
          scanReductionEquivalence(Engine, P, ModelSpec::revised());
      Checked += Scan.Reducible;
      Skipped += Scan.Skipped;
      Mismatches += Scan.Mismatches;
    }
  });
  T.row("validity mismatches on reducible executions", "0",
        std::to_string(Mismatches), Mismatches == 0);
  T.note("reducible executions checked: " + std::to_string(Checked) +
         ", non-reducible skipped: " + std::to_string(Skipped) + ", time " +
         std::to_string(Ms) + " ms");

  // Per-tot form of the equivalence on Fig. 2.
  {
    CandidateExecution CE = fig2Execution();
    DerivedTriple D = CE.derived(SwDefKind::Simplified);
    uint64_t Tots = 0, TotMismatches = 0;
    forEachLinearExtension(
        D.Hb, CE.allEventsMask(), [&](const std::vector<unsigned> &Seq) {
          CandidateExecution WithTot = CE;
          WithTot.Tot = totalOrderOver(Seq, CE.numEvents());
          ReductionResult RR = reduceToUniSize(WithTot);
          ++Tots;
          if (isValid(WithTot, ModelSpec::revised()) != isUniValid(RR.Uni))
            ++TotMismatches;
          return true;
        });
    T.row("per-tot mismatches on Fig. 2", "0",
          std::to_string(TotMismatches), TotMismatches == 0);
    T.note("tot witnesses enumerated: " + std::to_string(Tots));
  }

  // §6.4: the preconditions are necessary — Fig. 14's Init-tearing
  // execution is not reducible, and the strengthened Tear-Free Reads rule
  // restores rf⁻¹ functionality by forbidding it.
  T.check("Fig. 14 execution is not uni-size reducible", false,
          isUniSizeReducible(fig14Execution()));
  T.check("strong Tear-Free Reads forbids it", false,
          isValidForSomeTot(fig14Execution(),
                            ModelSpec::revisedStrongTearFree()));

  return T.finish();
}
