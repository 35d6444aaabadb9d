//===- bench_sec53_bounded_compilation.cpp - Experiment E8 (§5.3) ---------===//
///
/// \file
/// Regenerates the bounded compilation-correctness verification of the
/// revised model: within the search bound, every ARM-consistent skeleton
/// execution is witnessed as JS-valid by the proof's tot construction
/// (a linear extension of sb ∪ (obs ∩ (L∪A)²)) — without any deadness
/// approximation. The paper's Alloy bound was 8 events / 20 locations; the
/// explicit enumerator sweeps 5 events / 2 locations exhaustively plus a
/// 6-event budgeted pass, which already contains the entire counter-example
/// territory of §5.2.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "search/SkeletonSearch.h"

using namespace jsmm;
using namespace jsmm::bench;

int main(int Argc, char **Argv) {
  unsigned MaxEvents = Argc > 1 ? std::atoi(Argv[1]) : 5;

  Table T("E8: bounded compilation correctness of the revised model",
          "Watt et al. PLDI 2020, section 5.3");

  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = MaxEvents;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::revised();
  Cfg.Threads = 0; // shard the shape outer loop across all cores
  BoundedCompilationReport R;
  double Ms = timedMs([&] { R = boundedCompilationCheck(Cfg); });

  T.row("counter-examples within the bound", "0",
        std::to_string(R.ConstructionFailures), R.holds());
  T.check("every ARM-consistent execution witnessed by the construction",
          true, R.holds());
  T.note("skeletons: " + std::to_string(R.Skeletons) +
         ", rbf candidates: " + std::to_string(R.RbfCandidates) +
         ", ARM-consistent executions: " +
         std::to_string(R.ArmConsistentExecutions));
  T.note("bound: up to " + std::to_string(MaxEvents) +
         " events / 2 byte locations, time " + std::to_string(Ms) + " ms");

  // Contrast: the same check against the original model must fail at the
  // 6-event mark (where the §5.2 counter-example lives).
  SearchConfig Bad;
  Bad.MinEvents = 6;
  Bad.MaxEvents = 6;
  Bad.NumLocs = 2;
  Bad.Js = ModelSpec::original();
  Bad.MaxCandidates = 2000000;
  // Sharded like the sweep above. The budget is consumed jointly, so where
  // it cuts off depends on scheduling; the check only needs some failure.
  Bad.Threads = 0;
  BoundedCompilationReport BadR = boundedCompilationCheck(Bad);
  T.check("the original model fails the same check at 6 events", false,
          BadR.holds());
  T.note("original-model construction failures observed: " +
         std::to_string(BadR.ConstructionFailures));

  return T.finish();
}
