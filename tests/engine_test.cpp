//===- tests/engine_test.cpp - Unified engine golden equivalence ----------===//
//
// The engine's pruned and sharded enumerations must reproduce the seed
// enumerators' allowed-outcome sets exactly. The golden reference is the
// engine in seed-compatible mode (single-threaded, generate-then-filter),
// which is line-for-line the algorithm the seed frontends implemented.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "targets/Differential.h"
#include "tools/LitmusParser.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

std::vector<Program> paperPrograms() {
  return {fig1Program(), fig6Program(), fig8Program()};
}

std::vector<ModelSpec> allSpecs() {
  return {ModelSpec::original(), ModelSpec::armFixOnly(),
          ModelSpec::revised(), ModelSpec::revisedStrongTearFree()};
}

std::vector<std::string> outcomesOf(const Program &P, ModelSpec Spec,
                                    EngineConfig Cfg) {
  ExecutionEngine Engine(Cfg);
  return Engine.enumerate(P, JsModel(Spec)).outcomeStrings();
}

} // namespace

TEST(Engine, GoldenEquivalenceAcrossModelsAndConfigs) {
  for (const Program &P : paperPrograms()) {
    for (ModelSpec Spec : allSpecs()) {
      std::vector<std::string> Golden =
          outcomesOf(P, Spec, EngineConfig::seedCompatible());
      for (EngineConfig Cfg :
           {EngineConfig{1, true}, EngineConfig{2, true}, EngineConfig{4, true},
            EngineConfig{4, false}}) {
        EXPECT_EQ(Golden, outcomesOf(P, Spec, Cfg))
            << P.Name << " under " << Spec.Name << " with threads="
            << Cfg.Threads << " prune=" << Cfg.Prune;
      }
    }
  }
}

TEST(Engine, LegacyAdaptersMatchEngine) {
  for (const Program &P : paperPrograms()) {
    for (ModelSpec Spec : allSpecs()) {
      EnumerationResult Legacy = enumerateOutcomes(P, Spec);
      EnumerationResult Direct =
          ExecutionEngine().enumerate(P, JsModel(Spec));
      EXPECT_EQ(Legacy.outcomeStrings(), Direct.outcomeStrings());
    }
  }
}

TEST(Engine, PruningCutsSubtreesWithoutChangingOutcomes) {
  // Fig. 1 has guarded reads whose stale justifications violate the
  // tot-independent axioms: pruning must fire and must not change results.
  Program P = fig1Program();
  ExecutionEngine Pruned(EngineConfig{1, true});
  ExecutionEngine Unpruned(EngineConfig::seedCompatible());
  EnumerationResult A = Pruned.enumerate(P, JsModel(ModelSpec::revised()));
  EnumerationResult B = Unpruned.enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_EQ(A.outcomeStrings(), B.outcomeStrings());
  EXPECT_GT(Pruned.Stats.PrunedSubtrees, 0u);
  EXPECT_EQ(Unpruned.Stats.PrunedSubtrees, 0u);
  EXPECT_LT(A.CandidatesConsidered, B.CandidatesConsidered)
      << "pruning should reach fewer complete candidates";
}

TEST(Engine, ShardingSplitsTheSpace) {
  ExecutionEngine Engine(EngineConfig{4, true});
  Engine.enumerate(fig6Program(), JsModel(ModelSpec::original()));
  EXPECT_GT(Engine.Stats.WorkItems, 1u)
      << "a multi-writer program must split into several work items";
}

TEST(Engine, ArmEnumerationMatchesAcrossThreadCounts) {
  std::vector<ArmProgram> Programs = {armMP(true, true), armMP(false, false),
                                      armSB(true), armSB(false),
                                      armLB(true), armLB(false)};
  for (const ArmProgram &P : Programs) {
    ArmEnumerationResult Unpruned =
        ExecutionEngine(EngineConfig{1, false}).enumerate(P, Armv8Model());
    // Pruning cuts ARM subtrees too, so each sharded run's candidate count
    // is compared with the sequential run of the same pruning setting.
    for (bool Prune : {false, true}) {
      ArmEnumerationResult Golden =
          ExecutionEngine(EngineConfig{1, Prune}).enumerate(P, Armv8Model());
      EXPECT_EQ(Unpruned.outcomeStrings(), Golden.outcomeStrings()) << P.Name;
      for (unsigned Threads : {2u, 4u}) {
        ArmEnumerationResult Sharded =
            ExecutionEngine(EngineConfig{Threads, Prune})
                .enumerate(P, Armv8Model());
        EXPECT_EQ(Golden.outcomeStrings(), Sharded.outcomeStrings())
            << P.Name << " with threads=" << Threads;
        EXPECT_EQ(Golden.CandidatesConsidered, Sharded.CandidatesConsidered)
            << "sharding must cover the exact same candidate space";
      }
    }
  }
}

TEST(Engine, ScDrfMatchesLegacyBehaviour) {
  ScDrfReport Fig8Original =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::original()));
  EXPECT_TRUE(Fig8Original.DataRaceFree);
  EXPECT_FALSE(Fig8Original.AllValidExecutionsSC);
  EXPECT_FALSE(Fig8Original.holds());

  ScDrfReport Fig8Revised =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::revised()));
  EXPECT_TRUE(Fig8Revised.holds());

  ScDrfReport Fig1 =
      ExecutionEngine().scDrf(fig1Program(), JsModel(ModelSpec::revised()));
  EXPECT_TRUE(Fig1.DataRaceFree);
  EXPECT_TRUE(Fig1.AllValidExecutionsSC);
}

TEST(Engine, ModelNamesAreWired) {
  EXPECT_STREQ(JsModel(ModelSpec::original()).name(), "original");
  EXPECT_STREQ(JsModel().name(), "revised");
  EXPECT_STREQ(Armv8Model().name(), "armv8");
}

TEST(Engine, DerivedRelationCacheIsCoherent) {
  // Mutating rbf must invalidate the memoized triple (fingerprint check).
  CandidateExecution CE = fig2Execution();
  Relation Hb1 = CE.derived(SwDefKind::Simplified).Hb;
  EXPECT_EQ(Hb1, CE.derived(SwDefKind::Simplified).Hb); // stable when unchanged
  CandidateExecution Weaker = fig2Execution();
  Weaker.Rbf.clear();
  for (unsigned K = 4; K < 8; ++K)
    Weaker.Rbf.push_back({K, 0, 3}); // flag read now reads Init
  for (unsigned K = 0; K < 4; ++K)
    Weaker.Rbf.push_back({K, 1, 4});
  Relation Hb2 = Weaker.derived(SwDefKind::Simplified).Hb;
  EXPECT_NE(Hb1, Hb2) << "dropping the sw edge must change hb";
  // And the same object re-derives after in-place mutation.
  CE.Rbf = Weaker.Rbf;
  EXPECT_EQ(CE.derived(SwDefKind::Simplified).Hb, Hb2);
}

//===----------------------------------------------------------------------===//
// The outcome-level doors must match the witnessed ones, at every row width.
//===----------------------------------------------------------------------===//

TEST(Engine, OutcomeSummaryMatchesWitnessedEnumeration) {
  for (const Program &P : paperPrograms())
    for (ModelSpec Spec : allSpecs()) {
      ExecutionEngine Engine;
      EnumerationResult Witnessed = Engine.enumerate(P, JsModel(Spec));
      OutcomeSummary Summary = Engine.enumerateOutcomes(P, JsModel(Spec));
      EXPECT_EQ(Summary.outcomeStrings(), Witnessed.outcomeStrings())
          << P.Name << " / " << Spec.Name;
      EXPECT_EQ(Summary.CandidatesConsidered, Witnessed.CandidatesConsidered)
          << P.Name << " / " << Spec.Name;
      EXPECT_EQ(Summary.ValidCandidates, Witnessed.ValidCandidates)
          << P.Name << " / " << Spec.Name;
    }
}

TEST(Engine, WitnessDoorsMatchOutcomeDoorsOnLargePrograms) {
  // The witness-carrying doors serve every size up to the cap. On the
  // 65+-event corpus (rows of several words) their outcomes and counters
  // equal the outcome-level doors', for both JS models and every target
  // backend whose compiled form fits the cap.
  unsigned Checked = 0, LargeJs = 0;
  for (const DiffCase &C : largeDifferentialCorpus()) {
    if (uniProgramEventBound(C.Uni) > 128)
      continue; // keeps the test quick; the wide programs add no shape
    Program P = mixedFromUni(C.Uni);
    LargeJs += programEventUpperBound(P) > 64;
    for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised()}) {
      ExecutionEngine Engine;
      EnumerationResult Witnessed = Engine.enumerate(P, JsModel(Spec));
      OutcomeSummary Summary = Engine.enumerateOutcomes(P, JsModel(Spec));
      EXPECT_EQ(Summary.Tier,
                programEventUpperBound(P) > 64 ? "dyn" : "inline");
      EXPECT_EQ(Summary.outcomeStrings(), Witnessed.outcomeStrings())
          << C.Name << " / " << Spec.Name;
      EXPECT_EQ(Summary.CandidatesConsidered, Witnessed.CandidatesConsidered)
          << C.Name << " / " << Spec.Name;
      EXPECT_EQ(Summary.ValidCandidates, Witnessed.ValidCandidates)
          << C.Name << " / " << Spec.Name;
    }
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(C.Uni, M.arch());
      if (ExecutionEngine::capacityError(CT))
        continue;
      ExecutionEngine Engine;
      TargetEnumerationResult Witnessed = Engine.enumerate(CT, M);
      OutcomeSummary Summary = Engine.enumerateOutcomes(CT, M);
      EXPECT_EQ(Summary.outcomeStrings(), Witnessed.outcomeStrings())
          << C.Name << " / " << M.name();
      EXPECT_EQ(Summary.CandidatesConsidered, Witnessed.CandidatesConsidered)
          << C.Name << " / " << M.name();
      for (const auto &[O, X] : Witnessed.Allowed)
        EXPECT_TRUE(M.allows(X)) << C.Name << " / " << M.name();
      ++Checked;
    }
  }
  EXPECT_GE(Checked, 6u);
  EXPECT_GT(LargeJs, 0u);
}

TEST(Engine, ShardedLargeProgramEnumerationIsDeterministic) {
  // Thread-count determinism on a 65+-event program (rows of two words).
  for (const DiffCase &C : largeDifferentialCorpus()) {
    if (C.Name != "iriw-chain-9t")
      continue;
    ASSERT_FALSE(C.Litmus.empty());
    std::optional<LitmusFile> File = parseLitmus(C.Litmus);
    ASSERT_TRUE(File.has_value());
    const Program &Mixed = File->P;
    OutcomeSummary Seq = ExecutionEngine(EngineConfig{1, true, false})
                             .enumerateOutcomes(Mixed, JsModel());
    for (unsigned Threads : {2u, 4u}) {
      OutcomeSummary Sharded =
          ExecutionEngine(EngineConfig{Threads, true, false})
              .enumerateOutcomes(Mixed, JsModel());
      EXPECT_EQ(Seq.Allowed, Sharded.Allowed) << "threads=" << Threads;
      EXPECT_EQ(Seq.CandidatesConsidered, Sharded.CandidatesConsidered);
    }
    return;
  }
  FAIL() << "iriw-chain-9t missing from the large corpus";
}

TEST(Engine, StatsAreIdenticalAcrossThreadCounts) {
  // The mutable Stats member is assigned exactly once per entry point,
  // after the worker join, from per-shard counters merged on the calling
  // thread — so for a fixed workload every counter except WorkItems (the
  // shard count itself) is byte-identical across thread counts. This used
  // to race: workers incremented the shared member in place, so a 4-thread
  // run could publish torn or lost counts. Pinned here at exact equality
  // and by the ThreadSanitizer CI job.
  auto WideSb = [] {
    UniProgram U(8);
    unsigned T0 = U.thread();
    U.store(T0, 0, 1, Mode::Unordered);
    U.load(T0, 1, Mode::Unordered);
    unsigned T1 = U.thread();
    U.store(T1, 1, 1, Mode::Unordered);
    U.load(T1, 0, Mode::Unordered);
    for (unsigned F = 0; F < 2; ++F) {
      unsigned T = U.thread();
      for (unsigned L = 0; L < 3; ++L)
        U.store(T, 2 + 3 * F + L, 1 + L, Mode::Unordered);
    }
    return mixedFromUni(U);
  };
  for (const Program &P : {fig6Program(), WideSb()}) {
    EngineConfig Base;
    Base.Threads = 1;
    Base.Reduction = true;
    ExecutionEngine Ref(Base);
    OutcomeSummary RefSummary =
        Ref.enumerateOutcomes(P, JsModel(ModelSpec::revised()));
    EngineStats RefStats = Ref.Stats;
    for (unsigned Threads : {2u, 4u}) {
      EngineConfig Cfg = Base;
      Cfg.Threads = Threads;
      ExecutionEngine Engine(Cfg);
      OutcomeSummary S =
          Engine.enumerateOutcomes(P, JsModel(ModelSpec::revised()));
      EXPECT_EQ(S.Allowed, RefSummary.Allowed)
          << P.Name << " threads=" << Threads;
      EXPECT_EQ(S.CandidatesConsidered, RefSummary.CandidatesConsidered)
          << P.Name << " threads=" << Threads;
      EXPECT_EQ(Engine.Stats.PrunedSubtrees, RefStats.PrunedSubtrees)
          << P.Name << " threads=" << Threads;
      EXPECT_EQ(Engine.Stats.SleptBranches, RefStats.SleptBranches)
          << P.Name << " threads=" << Threads;
    }
  }
  // The workloads must exercise both counters for the equality to bite.
  EngineConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Reduction = true;
  ExecutionEngine Pruner(Cfg), Sleeper(Cfg);
  Pruner.enumerateOutcomes(fig6Program(), JsModel(ModelSpec::revised()));
  Sleeper.enumerateOutcomes(WideSb(), JsModel(ModelSpec::revised()));
  EXPECT_GT(Pruner.Stats.PrunedSubtrees, 0u);
  EXPECT_GT(Sleeper.Stats.SleptBranches, 0u);
}
