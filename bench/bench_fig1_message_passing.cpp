//===- bench_fig1_message_passing.cpp - Experiment E1 (Fig. 1/2) ----------===//
///
/// \file
/// Regenerates the Fig. 1 message-passing table of §2: the outcomes allowed
/// by the JavaScript model for the atomic-flag program, and the relaxation
/// observed when either atomic is downgraded to a non-atomic access.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

int main() {
  Table T("E1: message passing through a SharedArrayBuffer",
          "Watt et al. PLDI 2020, Fig. 1/Fig. 2, section 2");

  Outcome Complete = outcome({{1, 0, 5}, {1, 1, 3}});
  Outcome FlagUnset = outcome({{1, 0, 0}});
  Outcome Stale = outcome({{1, 0, 5}, {1, 1, 0}});

  for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised()}) {
    EnumerationResult R =
        ExecutionEngine().enumerate(fig1Program(), JsModel(Spec));
    std::string Tag = std::string(" [") + Spec.Name + "]";
    T.check("r0=5 and r1=3 allowed" + Tag, true, R.allows(Complete));
    T.check("r0=0 allowed" + Tag, true, R.allows(FlagUnset));
    T.check("r0=5 and r1=0 (stale message) forbidden" + Tag, false,
            R.allows(Stale));
    T.check("exactly two outcomes" + Tag, true, R.Allowed.size() == 2);
    T.note("candidates considered: " +
           std::to_string(R.CandidatesConsidered));
  }

  // The §2 relaxation: a non-atomic flag write re-admits the stale
  // outcome.
  {
    Program P(1024);
    P.Name = "fig1-nonatomic-flag";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 3);
    T0.store(Acc::u32(4), 5);
    ThreadBuilder T1 = P.thread();
    Reg R0 = T1.load(Acc::u32(4).sc());
    T1.ifEq(R0, 5, [&](ThreadBuilder &B) { B.load(Acc::u32(0)); });
    EnumerationResult R =
        ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
    T.check("non-atomic flag write re-admits the stale outcome", true,
            R.allows(Stale));
  }
  {
    Program P(1024);
    P.Name = "fig1-nonatomic-read";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 3);
    T0.store(Acc::u32(4).sc(), 5);
    ThreadBuilder T1 = P.thread();
    Reg R0 = T1.load(Acc::u32(4)); // plain flag read
    T1.ifEq(R0, 5, [&](ThreadBuilder &B) { B.load(Acc::u32(0)); });
    EnumerationResult R =
        ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
    T.check("non-atomic flag read re-admits the stale outcome", true,
            R.allows(Stale));
  }

  return T.finish();
}
