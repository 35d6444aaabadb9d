//===- bench_sec61_scdrf_theorem.cpp - Experiment E10 (Thm 6.1) -----------===//
///
/// \file
/// Bounded model-checking of Theorem 6.1 (internal_sc_drf): in the revised
/// model, every well-formed, valid, data-race-free execution is
/// sequentially consistent. The sweep covers (a) every skeleton execution
/// within the §5 search bound and (b) the SC-DRF property at program level
/// for a family of litmus programs, including the paper's own figures.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"
#include "search/SkeletonSearch.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

int main() {
  Table T("E10: model-internal SC-DRF of the revised model (Thm 6.1)",
          "Watt et al. PLDI 2020, section 6.1");

  // (a) Execution-level sweep: valid + race-free => SC.
  {
    SearchConfig Cfg;
    Cfg.MinEvents = 2;
    Cfg.MaxEvents = 4;
    Cfg.NumLocs = 2;
    uint64_t Checked = 0, Violations = 0;
    double Ms = timedMs([&] {
      forEachSkeletonCandidate(
          Cfg,
          [&](const CandidateExecution &Js, const ArmExecution &Arm) {
            (void)Arm;
            if (!isValidForSomeTot(Js, ModelSpec::revised()))
              return true;
            if (!isRaceFree(Js, ModelSpec::revised()))
              return true;
            ++Checked;
            if (!isSequentiallyConsistent(Js))
              ++Violations;
            return true;
          },
          nullptr);
    });
    T.row("valid DRF executions that are not SC (revised)", "0",
          std::to_string(Violations), Violations == 0);
    T.note("valid race-free executions checked: " + std::to_string(Checked) +
           ", time " + std::to_string(Ms) + " ms");

    // Control: the same sweep under the original model must find the
    // violations the theorem excludes.
    uint64_t OrigViolations = 0;
    forEachSkeletonCandidate(
        Cfg,
        [&](const CandidateExecution &Js, const ArmExecution &Arm) {
          (void)Arm;
          if (isValidForSomeTot(Js, ModelSpec::original()) &&
              isRaceFree(Js, ModelSpec::original()) &&
              !isSequentiallyConsistent(Js))
            ++OrigViolations;
          return OrigViolations < 100;
        },
        nullptr);
    T.check("the original model does violate it in the same bound", true,
            OrigViolations > 0);
    T.note("original-model violations found (capped at 100): " +
           std::to_string(OrigViolations));
  }

  // (b) Program-level SC-DRF reports.
  struct Named {
    const char *Name;
    Program P;
  };
  std::vector<Named> Programs;
  Programs.push_back({"fig1 message passing", fig1Program()});
  Programs.push_back({"fig6 program", fig6Program()});
  Programs.push_back({"fig8 program", fig8Program()});
  {
    Program P(8);
    P.Name = "sb-sc";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    T0.load(Acc::u32(4).sc());
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(4).sc(), 1);
    T1.load(Acc::u32(0).sc());
    Programs.push_back({"store buffering (all SC)", P});
  }
  {
    Program P(4);
    P.Name = "xchg-race";
    ThreadBuilder T0 = P.thread();
    T0.exchange(Acc::u32(0), 1);
    ThreadBuilder T1 = P.thread();
    T1.exchange(Acc::u32(0), 2);
    Programs.push_back({"competing exchanges", P});
  }
  for (const Named &N : Programs) {
    ScDrfReport R = ExecutionEngine().scDrf(N.P, JsModel(ModelSpec::revised()));
    T.check(std::string("SC-DRF holds for ") + N.Name + " [revised]", true,
            R.holds());
  }
  ScDrfReport Fig8Orig =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::original()));
  T.check("fig8 violates SC-DRF under the original model", false,
          Fig8Orig.holds());

  return T.finish();
}
