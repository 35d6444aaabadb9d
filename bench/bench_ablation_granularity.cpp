//===- bench_ablation_granularity.cpp - Coherence-granularity ablation ----===//
///
/// \file
/// Ablation for the mixed-size design decision DESIGN.md calls out: where
/// Flat's mixed-size semantics is unsettled, the paper's axiomatic ARMv8
/// model "chooses weaker behaviours". Our rendition makes coherence a
/// per-*granule* order, so partially overlapping writes could in principle
/// be ordered differently on different granules — one global write order
/// per block (what the flat-memory operational model produces) is the
/// obvious stronger alternative.
///
/// The ablation's finding: the weakness is *almost vacuous*. For any two
/// writes, divergent granule orders put both coherence directions into
/// obs, which the external axiom rejects immediately — demonstrated on a
/// hand-built execution below. Divergence can therefore only survive
/// through same-thread (coi) links in chains of three or more overlapping
/// writes, and no test in the small-cycle corpus produces one. This is
/// the quantitative footnote to §4's "as long as our model is no stronger
/// than Flat" argument: the weak choice never threatens the E6 soundness
/// validation, and barely enlarges the model at litmus scale.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "engine/ExecutionEngine.h"
#include "flatsim/FlatSim.h"
#include "gen/Diy.h"

#include <set>

using namespace jsmm;
using namespace jsmm::bench;

namespace {

/// \returns true if the execution's granule orders embed into one global
/// order of the block's writes (their union is acyclic).
bool globallyOrderable(const ArmExecution &X) {
  Relation Union(X.numEvents());
  for (const CoGranule &G : X.Co)
    for (size_t I = 0; I < G.Order.size(); ++I)
      for (size_t J = I + 1; J < G.Order.size(); ++J)
        Union.set(G.Order[I], G.Order[J]);
  return Union.isAcyclic();
}

/// Two 4-byte writes from different threads, split into two granules by a
/// third 2-byte write, with the 4-byte writes ordered differently on the
/// two granules. The external axiom must reject it (coe both ways).
ArmExecution divergentPairExecution() {
  std::vector<ArmEvent> Evs;
  Evs.push_back(makeArmInit(0, 4));
  Evs.push_back(makeArmWrite(1, 0, 0, 4, 0x01010101));
  Evs.push_back(makeArmWrite(2, 1, 0, 4, 0x02020202));
  Evs.push_back(makeArmWrite(3, 2, 0, 2, 0x0303));
  ArmExecution X(std::move(Evs));
  X.Co = X.computeGranules(); // [0,2): {1,2,3}; [2,4): {1,2}
  for (CoGranule &G : X.Co) {
    if (G.Begin == 0) {
      G.Order.push_back(1);
      G.Order.push_back(3);
      G.Order.push_back(2); // W1 before W2 here...
    } else {
      G.Order.push_back(2);
      G.Order.push_back(1); // ...and W2 before W1 there.
    }
  }
  return X;
}

} // namespace

int main() {
  Table T("Ablation: per-granule coherence vs one global write order",
          "design decision of section 4 (mixed-size ARMv8 model)");

  // (1) The structural fact: pairwise divergence is self-defeating.
  ArmExecution Divergent = divergentPairExecution();
  std::string Why;
  T.check("divergent order for one write pair is inconsistent", false,
          isArmConsistent(Divergent, &Why));
  T.note("rejection reason: " + Why);
  T.check("...and it is exactly the non-globally-orderable shape", false,
          globallyOrderable(Divergent));

  // (2) The measurement: across the mixed-size corpus, does any
  // *consistent* execution or observable outcome need the weak choice?
  DiyConfig Cfg;
  Cfg.MinEdges = 2;
  Cfg.MaxEdges = 3;
  Cfg.IncludeWide = true;
  Cfg.IncludeOverlap = true;
  Cfg.Alphabet = {EdgeKind::Rfe,   EdgeKind::Fre,   EdgeKind::Coe,
                  EdgeKind::PodRW, EdgeKind::PodWR, EdgeKind::PodWW,
                  EdgeKind::PodRR};
  std::vector<DiyTest> Corpus = generateCorpus(Cfg);

  uint64_t WeakOnlyExecutions = 0, TotalConsistent = 0;
  uint64_t OperationalNonGlobal = 0;
  double Ms = timedMs([&] {
    for (const DiyTest &Test : Corpus) {
      ExecutionEngine().forEachArmCandidate(
          Test.Prog, [&](const ArmExecution &X, const Outcome &O) {
            (void)O;
            if (!isArmConsistent(X))
              return true;
            ++TotalConsistent;
            if (!globallyOrderable(X))
              ++WeakOnlyExecutions;
            return true;
          });
      forEachFlatExecution(Test.Prog,
                           [&](const ArmExecution &X, const Outcome &O) {
                             (void)O;
                             if (!globallyOrderable(X))
                               ++OperationalNonGlobal;
                             return true;
                           });
    }
  });

  T.row("consistent executions needing per-granule weakness",
        "0 at litmus scale",
        std::to_string(WeakOnlyExecutions) + "/" +
            std::to_string(TotalConsistent),
        WeakOnlyExecutions == 0);
  T.row("operational executions that are non-global", "0 (flat memory)",
        std::to_string(OperationalNonGlobal), OperationalNonGlobal == 0);
  T.note("=> replacing per-granule coherence by one global write order "
         "changes nothing on this corpus; the weak choice is future-"
         "proofing for >=3-write overlap chains, not observable here");
  T.note("corpus: " + std::to_string(Corpus.size()) + " tests, " +
         std::to_string(TotalConsistent) + " consistent executions, time " +
         std::to_string(Ms) + " ms");

  return T.finish();
}
