//===- tests/target_engine_test.cpp - Target backends in the engine -------===//
//
// The Thm 6.3 target architectures as engine backends: for EVERY backend —
// the four JavaScript model variants, mixed-size ARMv8, and the six
// targets — the engine's pruned and sharded enumerations must reproduce
// the seed-compatible (single-threaded, generate-then-filter) outcome sets
// exactly, across --threads 1/2/4 and pruning on/off. This extends
// tests/engine_test.cpp's golden-equivalence idea to all models.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"
#include "tools/LitmusParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace jsmm;

namespace {

/// A small but discriminating slice of the differential corpus (keeps the
/// full-matrix sweep fast).
std::vector<DiffCase> corpusSlice() {
  std::vector<DiffCase> Slice;
  for (const DiffCase &C : differentialCorpus())
    if (C.Name == "mp-plain" || C.Name == "sb-sc" || C.Name == "lb-plain" ||
        C.Name == "fig6-shape" || C.Name == "xchg-race")
      Slice.push_back(C);
  return Slice;
}

const std::vector<EngineConfig> &sweepConfigs() {
  static const std::vector<EngineConfig> Configs = {
      EngineConfig{1, true},  EngineConfig{2, true}, EngineConfig{4, true},
      EngineConfig{1, false}, EngineConfig{4, false}};
  return Configs;
}

std::string configName(const EngineConfig &Cfg) {
  return "threads=" + std::to_string(Cfg.Threads) +
         " prune=" + std::to_string(Cfg.Prune);
}

} // namespace

TEST(TargetEngine, GoldenEquivalenceForEveryBackend) {
  for (const DiffCase &C : corpusSlice()) {
    Program Mixed = mixedFromUni(C.Uni);
    // JavaScript backends (all four ModelSpec variants).
    for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::armFixOnly(),
                           ModelSpec::revised(),
                           ModelSpec::revisedStrongTearFree()}) {
      std::vector<std::string> Golden =
          ExecutionEngine(EngineConfig::seedCompatible())
              .enumerate(Mixed, JsModel(Spec))
              .outcomeStrings();
      for (const EngineConfig &Cfg : sweepConfigs())
        EXPECT_EQ(Golden, ExecutionEngine(Cfg)
                              .enumerate(Mixed, JsModel(Spec))
                              .outcomeStrings())
            << C.Name << " under " << Spec.Name << " with "
            << configName(Cfg);
    }
    // Mixed-size ARMv8 backend on the compiled program.
    {
      CompiledProgram CP = compileToArm(Mixed);
      std::vector<std::string> Golden =
          ExecutionEngine(EngineConfig::seedCompatible())
              .enumerate(CP.Arm, Armv8Model())
              .outcomeStrings();
      for (const EngineConfig &Cfg : sweepConfigs())
        EXPECT_EQ(Golden, ExecutionEngine(Cfg)
                              .enumerate(CP.Arm, Armv8Model())
                              .outcomeStrings())
            << C.Name << " under armv8 with " << configName(Cfg);
    }
    // The six target backends on their compiled programs.
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(C.Uni, M.arch());
      std::vector<std::string> Golden =
          ExecutionEngine(EngineConfig::seedCompatible())
              .enumerate(CT, M)
              .outcomeStrings();
      for (const EngineConfig &Cfg : sweepConfigs())
        EXPECT_EQ(Golden,
                  ExecutionEngine(Cfg).enumerate(CT, M).outcomeStrings())
            << C.Name << " under " << M.name() << " with "
            << configName(Cfg);
    }
  }
}

TEST(TargetEngine, ShardingCoversTheExactSameSpace) {
  // CandidatesConsidered is identical for every thread count (with a fixed
  // prune setting): sharding partitions the space, never resamples it.
  for (const DiffCase &C : corpusSlice()) {
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(C.Uni, M.arch());
      ExecutionEngine Seq(EngineConfig{1, false});
      TargetEnumerationResult Golden = Seq.enumerate(CT, M);
      for (unsigned Threads : {2u, 4u}) {
        ExecutionEngine Sharded(EngineConfig{Threads, false});
        TargetEnumerationResult R = Sharded.enumerate(CT, M);
        EXPECT_EQ(Golden.CandidatesConsidered, R.CandidatesConsidered)
            << C.Name << " under " << M.name() << " threads=" << Threads;
        EXPECT_EQ(Golden.outcomeStrings(), R.outcomeStrings());
      }
    }
  }
}

TEST(TargetEngine, ShardingSplitsTheSpace) {
  // mp-plain's first read (the flag) has two writers: Init and the store.
  UniProgram P(2);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  P.store(T0, 1, 1, Mode::Unordered);
  unsigned T1 = P.thread();
  P.load(T1, 1, Mode::Unordered);
  P.load(T1, 0, Mode::Unordered);
  ExecutionEngine Engine(EngineConfig{4, true});
  Engine.enumerate(compileUni(P, TargetArch::X86), TargetModel(TargetArch::X86));
  EXPECT_GT(Engine.Stats.WorkItems, 1u)
      << "a multi-writer target program must split into several work items";
}

TEST(TargetEngine, PruningCutsSubtreesWithoutChangingOutcomes) {
  // Racing exchanges can justify each other's reads in an rf cycle; the
  // po-loc ∪ rf admission check must cut those subtrees before the co
  // permutations are enumerated.
  UniProgram P(1);
  unsigned T0 = P.thread();
  P.exchange(T0, 0, 1);
  unsigned T1 = P.thread();
  P.exchange(T1, 0, 2);
  for (const TargetModel &M : TargetModel::all()) {
    CompiledTarget CT = compileUni(P, M.arch());
    ExecutionEngine Pruned(EngineConfig{1, true});
    ExecutionEngine Unpruned(EngineConfig::seedCompatible());
    TargetEnumerationResult A = Pruned.enumerate(CT, M);
    TargetEnumerationResult B = Unpruned.enumerate(CT, M);
    EXPECT_EQ(A.outcomeStrings(), B.outcomeStrings()) << M.name();
    EXPECT_GT(Pruned.Stats.PrunedSubtrees, 0u) << M.name();
    EXPECT_EQ(Unpruned.Stats.PrunedSubtrees, 0u) << M.name();
    EXPECT_LT(A.CandidatesConsidered, B.CandidatesConsidered)
        << M.name() << ": pruning should reach fewer complete candidates";
  }
}

TEST(TargetEngine, CandidateWalkMatchesEnumerate) {
  // A generate-then-filter loop over the candidate door must agree with
  // enumerate().
  for (const DiffCase &C : corpusSlice()) {
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(C.Uni, M.arch());
      std::set<std::string> Filtered;
      uint64_t Candidates = 0;
      ExecutionEngine().forEachTargetCandidate(
          CT, [&](const TargetExecution &X, const Outcome &O) {
            ++Candidates;
            if (M.allows(X))
              Filtered.insert(O.toString());
            return true;
          });
      TargetEnumerationResult R =
          ExecutionEngine(EngineConfig::seedCompatible()).enumerate(CT, M);
      EXPECT_EQ(std::vector<std::string>(Filtered.begin(), Filtered.end()),
                R.outcomeStrings())
          << C.Name << " under " << M.name();
      EXPECT_EQ(Candidates, R.CandidatesConsidered);
    }
  }
}

TEST(TargetEngine, BackendRegistry) {
  EXPECT_EQ(TargetModel::all().size(), 6u);
  for (const TargetModel &M : TargetModel::all()) {
    const TargetModel *ByName = TargetModel::byName(M.name());
    ASSERT_NE(ByName, nullptr) << M.name();
    EXPECT_EQ(ByName->arch(), M.arch());
  }
  EXPECT_EQ(TargetModel::byName("no-such-arch"), nullptr);
  EXPECT_STREQ(TargetModel(TargetArch::X86).name(), "x86-tso");
  EXPECT_STREQ(TargetModel(TargetArch::ArmV8).name(), "armv8-uni");
}

TEST(TargetEngine, AdmissionCheckIsSoundOnCompleteCandidates) {
  // A complete candidate that some backend accepts must never have been
  // prunable: allows(X) implies the walk's admission, po-loc ∪ rf acyclic.
  for (const DiffCase &C : corpusSlice()) {
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(C.Uni, M.arch());
      ExecutionEngine().forEachTargetCandidate(
          CT, [&](const TargetExecution &X, const Outcome &) {
            if (M.allows(X)) {
              EXPECT_TRUE(targetAdmits(X.poLoc(), X.Rf))
                  << C.Name << " under " << M.name();
            }
            return true;
          });
    }
  }
}

namespace {

/// One random uni-size program: 1-3 threads of 1-3 accesses, at most six
/// in all, over two cells; relaxed and SC loads and stores and exchanges,
/// values 1-2. Deterministic in the caller's seeded \p Rng.
UniProgram randomUniProgram(std::mt19937 &Rng) {
  auto Dist = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  UniProgram P(2);
  int Threads = Dist(1, 3);
  int Budget = 6;
  for (int T = 0; T < Threads && Budget > 0; ++T) {
    unsigned Th = P.thread();
    for (int I = std::min(Dist(1, 3), Budget); I > 0; --I, --Budget) {
      unsigned Loc = static_cast<unsigned>(Dist(0, 1));
      Mode Ord = Dist(0, 2) == 0 ? Mode::SeqCst : Mode::Unordered;
      uint64_t Val = static_cast<uint64_t>(Dist(1, 2));
      switch (Dist(0, 4)) {
      case 0:
      case 1:
        P.load(Th, Loc, Ord);
        break;
      case 2:
      case 3:
        P.store(Th, Loc, Val, Ord);
        break;
      default:
        P.exchange(Th, Loc, Val);
        break;
      }
    }
  }
  return P;
}

/// The one-walk inputs: a uni-size program and the static analysis of its
/// JavaScript rendering (as the service hands it to the target columns).
struct WalkCase {
  std::string Name;
  UniProgram Uni;
  analysis::StaticValues SV;
};

WalkCase walkCase(std::string Name, UniProgram Uni, const Program &Js) {
  analysis::StaticValues SV = analysis::analyzeValues(Js);
  return {std::move(Name), std::move(Uni), std::move(SV)};
}

std::vector<WalkCase> oneWalkCases() {
  std::vector<WalkCase> Cases;
  for (const DiffCase &C : differentialCorpus())
    Cases.push_back(walkCase(C.Name, C.Uni, C.program()));
  for (const LitmusJob &J : largeCorpusJobs()) {
    std::optional<LitmusFile> File = parseLitmus(J.Litmus);
    EXPECT_TRUE(File.has_value()) << J.Name;
    std::optional<UniProgram> Uni =
        File ? uniFromProgram(File->P) : std::nullopt;
    EXPECT_TRUE(Uni.has_value()) << J.Name;
    if (Uni)
      Cases.push_back(walkCase(J.Name, *Uni, File->P));
  }
  std::mt19937 Rng(2026);
  for (int I = 0; I < 240; ++I) {
    UniProgram U = randomUniProgram(Rng);
    Cases.push_back(walkCase("gen-" + std::to_string(I), U, mixedFromUni(U)));
  }
  return Cases;
}

/// The generate-then-filter reference: every candidate of \p CT judged by
/// the full predicate.
std::vector<std::string> referenceOutcomes(const CompiledTarget &CT,
                                           const TargetModel &M) {
  std::set<std::string> Allowed;
  ExecutionEngine().forEachTargetCandidate(CT, [&](const TargetExecution &X,
                                                   const Outcome &O) {
    if (M.allows(X))
      Allowed.insert(O.toString());
    return true;
  });
  return {Allowed.begin(), Allowed.end()};
}

} // namespace

TEST(TargetEngine, OneWalkMatchesPerTargetWalks) {
  // The joint door walks rf x co once for all six compiled forms. For each
  // target it must give exactly what a walk with that model alone gives:
  // outcomes, candidates, consistent candidates and the walk's counters,
  // across threads, pruning and static pruning. All six share one
  // candidate count. Each witness of the single-target enumerate() must
  // satisfy its backend's full predicate, and on <=64-event programs the
  // outcomes must also equal the generate-then-filter reference. The
  // 65+-event cases walk rows of several words.
  std::vector<WalkCase> Cases = oneWalkCases();
  ASSERT_GE(Cases.size(), 17u + 2u + 200u);
  unsigned Checked = 0, LargeServed = 0;
  for (const WalkCase &C : Cases) {
    std::vector<CompiledTarget> CTs;
    for (const TargetModel &M : TargetModel::all())
      CTs.push_back(compileUni(C.Uni, M.arch()));
    bool Small = true;
    for (const CompiledTarget &CT : CTs) {
      unsigned Events = CT.NumLocs;
      for (const std::vector<TargetInstr> &Body : CT.Threads)
        Events += static_cast<unsigned>(Body.size());
      Small = Small && Events <= 64;
    }
    std::vector<std::vector<std::string>> Reference;
    if (Small)
      for (size_t I = 0; I < CTs.size(); ++I)
        Reference.push_back(
            referenceOutcomes(CTs[I], TargetModel::all()[I]));
    for (unsigned Threads : {1u, 4u})
      for (bool Prune : {true, false})
        for (bool Static : {false, true}) {
          EngineConfig Cfg;
          Cfg.Threads = Threads;
          Cfg.Prune = Prune;
          Cfg.StaticFastPath = Static;
          std::string Where = C.Name + " threads=" + std::to_string(Threads) +
                              " prune=" + std::to_string(Prune) +
                              " static=" + std::to_string(Static);
          ExecutionEngine Joint(Cfg);
          std::vector<OutcomeSummary> Sums =
              Joint.enumerateOutcomes(CTs, &C.SV);
          ASSERT_EQ(Sums.size(), CTs.size()) << Where;
          LargeServed += Sums[0].Tier == "dyn";
          for (size_t I = 0; I < CTs.size(); ++I) {
            const TargetModel &M = TargetModel::all()[I];
            ExecutionEngine Alone(Cfg);
            OutcomeSummary S = Alone.enumerateOutcomes(CTs[I], M, &C.SV);
            std::string At = Where + " " + M.name();
            EXPECT_EQ(Sums[I].outcomeStrings(), S.outcomeStrings()) << At;
            EXPECT_EQ(Sums[I].CandidatesConsidered, S.CandidatesConsidered)
                << At;
            EXPECT_EQ(Sums[I].ValidCandidates, S.ValidCandidates) << At;
            EXPECT_EQ(Sums[I].CandidatesConsidered,
                      Sums[0].CandidatesConsidered)
                << At << ": the six targets walk one candidate space";
            EXPECT_EQ(Joint.Stats.StaticRfPruned, Alone.Stats.StaticRfPruned)
                << At;
            EXPECT_EQ(Joint.Stats.PrunedSubtrees, Alone.Stats.PrunedSubtrees)
                << At;
            EXPECT_EQ(Joint.Stats.WorkItems, Alone.Stats.WorkItems) << At;
            if (Small) {
              EXPECT_EQ(Sums[I].outcomeStrings(), Reference[I]) << At;
            }
            if (!Static) {
              TargetEnumerationResult W = Alone.enumerate(CTs[I], M);
              for (const auto &[O, Witness] : W.Allowed)
                EXPECT_TRUE(M.allows(Witness)) << At << " " << O.toString();
              EXPECT_EQ(W.outcomeStrings(), Sums[I].outcomeStrings()) << At;
            }
            ++Checked;
          }
        }
  }
  EXPECT_GT(LargeServed, 0u);
  EXPECT_GE(Checked, 6u * 8u * 200u);
}

TEST(TargetEngine, NonZeroInitHasNoTargetColumns) {
  // Nonzero initial values are not expressible uni-size, so a
  // differential job with an init directive runs the JavaScript columns
  // and no target walk.
  LitmusJob Job;
  Job.Model = "differential";
  Job.Litmus = "name init-mp\nbuffer 8\ninit u32 0 = 7\n"
               "thread\n  store.sc u32 0 = 1\n  store.sc u32 4 = 1\n"
               "thread\n  r0 = load.sc u32 4\n  r1 = load u32 0\n";
  LitmusJobResult R = LitmusService().runOne(Job);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.AllowedByBackend.count("js-revised"));
  for (const TargetModel &M : TargetModel::all())
    EXPECT_FALSE(R.AllowedByBackend.count(M.name())) << M.name();
}

TEST(TargetEngine, JointDoorRejectsFormsOfDifferentPrograms) {
  // One walk serves only compiled forms that share their accesses.
  UniProgram A(1), B(1);
  unsigned TA = A.thread();
  A.store(TA, 0, 1, Mode::Unordered);
  unsigned TB = B.thread();
  B.store(TB, 0, 2, Mode::Unordered);
  std::vector<CompiledTarget> CTs = {compileUni(A, TargetArch::X86),
                                     compileUni(B, TargetArch::Power)};
  EXPECT_THROW(ExecutionEngine().enumerateOutcomes(CTs),
               std::invalid_argument);
  EXPECT_TRUE(ExecutionEngine()
                  .enumerateOutcomes(std::vector<CompiledTarget>())
                  .empty());
}
