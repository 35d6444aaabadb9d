//===- examples/scdrf_audit.cpp - Auditing programs for SC-DRF ------------===//
///
/// \file
/// Uses the library as a verification tool: given a litmus program, report
/// whether it is data-race-free and whether all of its allowed behaviours
/// are sequentially consistent — under both the original and the revised
/// model. Demonstrates the Fig. 8 anomaly and a correctly synchronized
/// spinlock-style handoff.
///
/// Run:  build/examples/scdrf_audit
///
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "paper/Figures.h"

#include <iostream>

using namespace jsmm;

namespace {

void audit(const Program &P) {
  std::cout << "== " << P.Name << " ==\n";
  for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised()}) {
    ScDrfReport R = ExecutionEngine().scDrf(P, JsModel(Spec));
    std::cout << "  [" << Spec.Name << "] data-race-free: "
              << (R.DataRaceFree ? "yes" : "no")
              << ", all behaviours SC: "
              << (R.AllValidExecutionsSC ? "yes" : "NO")
              << ", SC-DRF: " << (R.holds() ? "holds" : "VIOLATED") << "\n";
    if (R.NonScWitness) {
      std::cout << "  non-SC witness:\n" << R.NonScWitness->toString();
    }
    if (R.RaceWitness && !R.DataRaceFree) {
      auto Races = findDataRaces(*R.RaceWitness, Spec);
      std::cout << "  racing events in one witness:";
      for (auto [A, B] : Races)
        std::cout << " <" << A << "," << B << ">";
      std::cout << "\n";
    }
  }
  std::cout << "\n";
}

} // namespace

int main() {
  // 1. The paper's SC-DRF anomaly (Fig. 8): DRF, yet non-SC under the
  //    original model.
  audit(paper::fig8Program());

  // 2. A lock-style handoff: entirely SC-atomic flag traffic, Unordered
  //    payload. DRF and SC under both models.
  {
    Program P(8);
    P.Name = "guarded-handoff";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 41);
    T0.store(Acc::u32(4).sc(), 1); // unlock
    ThreadBuilder T1 = P.thread();
    Reg L = T1.load(Acc::u32(4).sc()); // try lock
    T1.ifEq(L, 1, [&](ThreadBuilder &B) {
      B.load(Acc::u32(0));
      B.store(Acc::u32(0), 42);
    });
    audit(P);
  }

  // 3. A racy program: SC-DRF is vacuous (the premise fails), and the
  //    audit pinpoints the racing pair.
  {
    Program P(4);
    P.Name = "racy-increment";
    ThreadBuilder T0 = P.thread();
    Reg A = T0.load(Acc::u32(0));
    (void)A;
    T0.store(Acc::u32(0), 1);
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(0), 2);
    audit(P);
  }

  // 4. Mixed-size subtlety: same-range SC atomics never race, but
  //    different-range SC atomics do (Fig. 7's range condition).
  {
    Program P(4);
    P.Name = "mixed-size-sc-race";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u16(0).sc());
    audit(P);
  }
  return 0;
}
