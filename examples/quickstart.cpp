//===- examples/quickstart.cpp - First steps with the jsmm library --------===//
///
/// \file
/// Builds the paper's Fig. 1 message-passing program with the litmus API,
/// asks the JavaScript memory model which outcomes it allows, and inspects
/// one witnessing execution. Start here.
///
/// Run:  build/examples/quickstart
///
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "litmus/Program.h"

#include <iostream>

using namespace jsmm;

int main() {
  // x = new Int32Array(new SharedArrayBuffer(1024));
  Program P(1024);
  P.Name = "message-passing";

  // Thread 0:  x[0] = 3;  Atomics.store(x, 1, 5);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 3);
  T0.store(Acc::u32(4).sc(), 5);

  // Thread 1:  r0 = Atomics.load(x, 1);  if (r0 == 5) r1 = x[0];
  ThreadBuilder T1 = P.thread();
  Reg R0 = T1.load(Acc::u32(4).sc());
  T1.ifEq(R0, 5, [&](ThreadBuilder &B) { B.load(Acc::u32(0)); });

  // Which outcomes does the (revised, TC39-adopted) model allow?
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));

  std::cout << "Program: " << P.Name << "\n"
            << "Allowed outcomes under the revised JavaScript model:\n";
  for (const auto &[O, Witness] : R.Allowed) {
    (void)Witness;
    std::cout << "  " << O.toString() << "\n";
  }
  std::cout << "(" << R.CandidatesConsidered
            << " candidate executions were examined)\n\n";

  // The guarantee: if the flag is seen (r0 = 5), the message must be seen
  // too (r1 = 3). The stale outcome is not in the allowed set.
  Outcome Stale;
  Stale.add(1, 0, 5);
  Stale.add(1, 1, 0);
  std::cout << "Stale outcome " << Stale.toString() << " allowed? "
            << (R.allows(Stale) ? "yes (?!)" : "no — the atomics "
                                               "synchronize")
            << "\n\n";

  // Inspect the witnessing execution of the complete handoff, including
  // its total-order witness.
  Outcome Complete;
  Complete.add(1, 0, 5);
  Complete.add(1, 1, 3);
  auto It = R.Allowed.find(Complete);
  if (It != R.Allowed.end()) {
    std::cout << "A valid candidate execution justifying "
              << Complete.toString() << ":\n"
              << It->second.toString();
  }
  return 0;
}
