//===- tests/unijs_test.cpp - The uni-js column of the uni-size walk ------===//
//
// The uni-size JavaScript model (uni-js, Fig. 12) is a column of the
// engine's one uni-size walk, next to the six Thm 6.3 targets. These tests
// check it against an engine-independent generate-then-filter reference
// (testutil::bruteUniAllowedOutcomes), pin the case where the targets cut
// a subtree uni-js must still walk, check the §6.3 reduction's prediction
// that uni-js equals js-revised on the uni-size fragment, and check that
// riding along changes none of the target columns' results or counters.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/StaticValues.h"
#include "engine/ExecutionEngine.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"
#include "tools/LitmusParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace jsmm;

namespace {

/// A uni-size program with the JavaScript program it was converted from.
struct UniCase {
  std::string Name;
  UniProgram Uni;
  Program Js;
};

std::vector<UniCase> corpusCases() {
  std::vector<UniCase> Cases;
  for (const DiffCase &C : differentialCorpus())
    Cases.push_back({C.Name, C.Uni, C.program()});
  for (const DiffCase &C : largeDifferentialCorpus())
    Cases.push_back({C.Name, C.Uni, C.program()});
  return Cases;
}

/// The first \p Count programs of randomSmallProgram (seed 63) that are
/// in the uni-size fragment.
std::vector<UniCase> randomCases(unsigned Count) {
  std::vector<UniCase> Cases;
  std::mt19937 Rng(63);
  for (unsigned I = 0; Cases.size() < Count; ++I) {
    Program P = testutil::randomSmallProgram(Rng);
    if (std::optional<UniProgram> U = uniFromProgram(P))
      Cases.push_back({"gen-" + std::to_string(I), *U, P});
  }
  return Cases;
}

/// The uni-size example litmus files.
std::vector<UniCase> exampleCases() {
  std::vector<UniCase> Cases;
  std::filesystem::path Dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "litmus";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".litmus")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  for (const std::filesystem::path &F : Files) {
    std::ifstream In(F);
    std::stringstream Text;
    Text << In.rdbuf();
    std::optional<LitmusFile> File = parseLitmus(Text.str());
    EXPECT_TRUE(File.has_value()) << F;
    if (!File)
      continue;
    if (std::optional<UniProgram> U = uniFromProgram(File->P))
      Cases.push_back({F.filename().string(), *U, File->P});
  }
  return Cases;
}

std::vector<std::string> strings(const std::vector<Outcome> &Os) {
  std::vector<std::string> Out;
  for (const Outcome &O : Os)
    Out.push_back(O.toString());
  return Out;
}

std::vector<CompiledTarget> compiledForms(const UniProgram &U) {
  std::vector<CompiledTarget> CTs;
  for (const TargetModel &M : TargetModel::all())
    CTs.push_back(compileUni(U, M.arch()));
  return CTs;
}

} // namespace

TEST(UniJs, MatchesBruteReference) {
  // The uni-js column, alone (uniAllowedOutcomes) and riding the six
  // targets' walk across threads, pruning and static pruning, equals the
  // generate-then-filter reference.
  std::vector<UniCase> Cases = corpusCases();
  std::vector<UniCase> Random = randomCases(200);
  Cases.insert(Cases.end(), Random.begin(), Random.end());
  ASSERT_GE(Cases.size(), 17u + 2u + 200u);
  for (const UniCase &C : Cases) {
    std::vector<std::string> Reference =
        strings(testutil::bruteUniAllowedOutcomes(C.Uni));
    EXPECT_EQ(strings(uniAllowedOutcomes(C.Uni)), Reference) << C.Name;
    std::vector<CompiledTarget> CTs = compiledForms(C.Uni);
    analysis::StaticValues SV = analysis::analyzeValues(C.Js);
    for (unsigned Threads : {1u, 4u})
      for (bool Prune : {true, false})
        for (bool Static : {false, true}) {
          EngineConfig Cfg;
          Cfg.Threads = Threads;
          Cfg.Prune = Prune;
          Cfg.StaticFastPath = Static;
          std::vector<OutcomeSummary> Sums =
              ExecutionEngine(Cfg).enumerateOutcomes(CTs, &SV, &C.Uni);
          ASSERT_EQ(Sums.size(), CTs.size() + 1) << C.Name;
          EXPECT_EQ(Sums.back().outcomeStrings(), Reference)
              << C.Name << " threads=" << Threads << " prune=" << Prune
              << " static=" << Static;
        }
  }
}

TEST(UniJs, SameLocationLoadBufferingOutlivesTheTargetCut) {
  // Each thread reads x, then writes it. Reading each other's writes puts
  // po-loc ∪ rf on a cycle, so targetAdmits cuts that rf for all six
  // targets. uni-js has no coherence for unordered accesses and allows it:
  // the joint walk must go on below the targets' cut.
  UniProgram P(1);
  unsigned T0 = P.thread();
  P.load(T0, 0, Mode::Unordered);
  P.store(T0, 0, 1, Mode::Unordered);
  unsigned T1 = P.thread();
  P.load(T1, 0, Mode::Unordered);
  P.store(T1, 0, 2, Mode::Unordered);
  Outcome Lb;
  Lb.add(0, 0, 2);
  Lb.add(1, 0, 1);
  ASSERT_EQ(Lb.toString(), "0:r0=2 1:r0=1");
  auto Allows = [&](const std::vector<Outcome> &Os) {
    return std::find(Os.begin(), Os.end(), Lb) != Os.end();
  };
  EXPECT_TRUE(Allows(testutil::bruteUniAllowedOutcomes(P)));
  EXPECT_TRUE(Allows(uniAllowedOutcomes(P)));
  for (unsigned Threads : {1u, 4u}) {
    ExecutionEngine E(EngineConfig{Threads, true});
    std::vector<OutcomeSummary> Sums =
        E.enumerateOutcomes(compiledForms(P), nullptr, &P);
    ASSERT_EQ(Sums.size(), 7u);
    for (size_t I = 0; I < 6; ++I)
      EXPECT_FALSE(Sums[I].allows(Lb)) << TargetModel::all()[I].name();
    EXPECT_TRUE(Sums[6].allows(Lb)) << "threads=" << Threads;
    EXPECT_GT(E.Stats.PrunedSubtrees, 0u) << "the targets cut the rf";
  }
}

TEST(UniJs, EqualsJsRevisedOnTheUniSizeFragment) {
  // The §6.3 reduction (unisize/Reduction.h) maps every revised mixed-size
  // execution of a program in the uni-size fragment to a uni-size one and
  // back, so uni-js and js-revised allow the same outcomes there. Its
  // preconditions, checked first: zero initial values, one width per cell,
  // disjoint cells aligned to their width, and tear-free accesses
  // (uniFromProgram also rules out control flow).
  std::vector<UniCase> Cases = corpusCases();
  std::vector<UniCase> Examples = exampleCases();
  Cases.insert(Cases.end(), Examples.begin(), Examples.end());
  ASSERT_EQ(Cases.size(), 17u + 3u + 5u);
  for (const UniCase &C : Cases) {
    ASSERT_FALSE(C.Js.hasNonZeroInit()) << C.Name;
    std::string Why;
    ASSERT_TRUE(uniFromProgram(C.Js, &Why).has_value()) << C.Name << Why;
    for (unsigned T = 0; T < C.Js.numThreads(); ++T)
      for (const Instr &I : C.Js.threadBody(T)) {
        ASSERT_EQ(I.Access.Offset % I.Access.Width, 0u) << C.Name;
        ASSERT_TRUE(I.Access.TearFree) << C.Name;
      }
    for (bool Static : {false, true}) {
      EngineConfig Cfg;
      Cfg.StaticFastPath = Static;
      ExecutionEngine E(Cfg);
      analysis::StaticValues SV = analysis::analyzeValues(C.Js);
      std::vector<std::string> JsRevised =
          E.enumerateOutcomes(C.Js, JsModel(ModelSpec::revised()), &SV)
              .outcomeStrings();
      std::vector<std::string> UniJs =
          E.enumerateOutcomes({}, &SV, &C.Uni)[0].outcomeStrings();
      EXPECT_EQ(UniJs, JsRevised) << C.Name << " static=" << Static;
    }
  }
}

TEST(UniJs, TargetCountersDoNotSeeIt) {
  // The six target columns report the same outcomes, candidates and walk
  // counters with uni-js riding along as without it: work done only in
  // subtrees the targets refuted counts toward no target counter. The
  // last case reaches a statically excluded writer (thread 1's own later
  // store to y) below the targets' cut of same-location load buffering.
  std::vector<UniCase> Cases = corpusCases();
  UniProgram Lb(2);
  unsigned T0 = Lb.thread();
  Lb.load(T0, 0, Mode::Unordered);
  Lb.store(T0, 0, 1, Mode::Unordered);
  unsigned T1 = Lb.thread();
  Lb.load(T1, 0, Mode::Unordered);
  Lb.store(T1, 0, 2, Mode::Unordered);
  Lb.load(T1, 1, Mode::Unordered);
  Lb.store(T1, 1, 1, Mode::Unordered);
  Cases.push_back({"lb-then-own-store", Lb, mixedFromUni(Lb)});
  for (const UniCase &C : Cases) {
    std::vector<CompiledTarget> CTs = compiledForms(C.Uni);
    analysis::StaticValues SV = analysis::analyzeValues(C.Js);
    for (unsigned Threads : {1u, 4u})
      for (bool Static : {false, true}) {
        EngineConfig Cfg;
        Cfg.Threads = Threads;
        Cfg.StaticFastPath = Static;
        std::string Where = C.Name + " threads=" + std::to_string(Threads) +
                            " static=" + std::to_string(Static);
        ExecutionEngine Alone(Cfg), Along(Cfg);
        std::vector<OutcomeSummary> A = Alone.enumerateOutcomes(CTs, &SV);
        std::vector<OutcomeSummary> B = Along.enumerateOutcomes(CTs, &SV,
                                                                &C.Uni);
        ASSERT_EQ(B.size(), A.size() + 1) << Where;
        for (size_t I = 0; I < A.size(); ++I) {
          EXPECT_EQ(A[I].outcomeStrings(), B[I].outcomeStrings()) << Where;
          EXPECT_EQ(A[I].CandidatesConsidered, B[I].CandidatesConsidered)
              << Where;
          EXPECT_EQ(A[I].ValidCandidates, B[I].ValidCandidates) << Where;
          EXPECT_EQ(A[I].Tier, B[I].Tier) << Where;
        }
        EXPECT_EQ(Alone.Stats.PrunedSubtrees, Along.Stats.PrunedSubtrees)
            << Where;
        EXPECT_EQ(Alone.Stats.StaticRfPruned, Along.Stats.StaticRfPruned)
            << Where;
        EXPECT_EQ(Alone.Stats.WorkItems, Along.Stats.WorkItems) << Where;
        EXPECT_EQ(Alone.Stats.StaticPathsPruned,
                  Along.Stats.StaticPathsPruned)
            << Where;
      }
  }
}
