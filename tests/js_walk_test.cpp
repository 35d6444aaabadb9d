//===- tests/js_walk_test.cpp - The JavaScript walk's derived relations ---===//
//
// The engine's JavaScript walk keeps rf, sw and hb along the walk: each
// complete read adds its edges, each new sw edge is closed into hb in
// place, and backtracking undoes them. These tests check that state
// against CandidateExecution::derived, computed from scratch, at every
// admitted prefix and every leaf, under both synchronizes-with
// definitions, and check that the admission, which looks at the new
// read's edges alone unless hb grew, admits only prefixes that satisfy
// the tot-independent axioms; and that the witness-free outcome door
// answers exactly what summarizing the witness-carrying enumerate()
// answers.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "targets/Differential.h"
#include "tools/LitmusParser.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace jsmm;

namespace {

struct NamedProgram {
  std::string Name;
  Program P;
  bool Random = false;
};

/// The differential corpus, the example litmus files and the first
/// \p Random draws of randomSmallProgram (seed 0x3A11).
std::vector<NamedProgram> walkPrograms(unsigned Random) {
  std::vector<NamedProgram> Out;
  for (const DiffCase &C : differentialCorpus())
    Out.push_back({C.Name, C.program()});
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
    if (File)
      Out.push_back({F.filename().string(), File->P});
  }
  std::mt19937 Rng(0x3A11);
  for (unsigned I = 0; I < Random; ++I)
    Out.push_back({"gen-" + std::to_string(I),
                   testutil::randomSmallProgram(Rng), true});
  return Out;
}

std::vector<std::string> strings(const std::vector<Outcome> &Os) {
  std::vector<std::string> Out;
  for (const Outcome &O : Os)
    Out.push_back(O.toString());
  return Out;
}

} // namespace

TEST(JsWalk, DerivedRelationsEqualTheFromScratchTriple) {
  // A few random programs admit millions of candidates, so each walk
  // stops after LeafCap leaves; every prefix and leaf up to there is
  // checked. The unpruned walk, whose prefixes include cyclic and
  // inconsistent ones, runs on the corpus and the examples: on some
  // random programs it passes millions of prefixes between two leaves.
  constexpr uint64_t LeafCap = 20000;
  uint64_t Prefixes = 0, Leaves = 0, InitOnlyScReads = 0, Rmws = 0;
  for (const NamedProgram &NP : walkPrograms(300))
    for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised()})
      for (bool Prune : {true, false}) {
        if (!Prune && NP.Random)
          continue;
        std::string Mismatch;
        auto Check = [&](const CandidateExecution &CE, const DerivedTriple &D,
                         const char *Where) {
          DerivedTriple Ref = CE.derived(Spec.Sw);
          if (Mismatch.empty() &&
              (D.Rf != Ref.Rf || D.Sw != Ref.Sw || D.Hb != Ref.Hb))
            Mismatch = std::string(Where) + " with rbf\n" + CE.toString();
        };
        std::string Unsound;
        ExecutionEngine E(EngineConfig{1, Prune});
        uint64_t WalkLeaves = 0;
        E.forEachAdmittedCandidate(
            NP.P, JsModel(Spec),
            [&](const CandidateExecution &CE, const DerivedTriple &D,
                const Outcome &) {
              ++Leaves;
              Check(CE, D, "leaf");
              for (const Event &R : CE.Events) {
                Rmws += R.isRead() && R.isWrite();
                // A SeqCst read of Init bytes alone: sw under the
                // specification's Init case only.
                bool InitOnly = R.isRead() && R.Ord == Mode::SeqCst;
                bits::forEach(D.Rf.column(R.Id), [&](unsigned W) {
                  InitOnly = InitOnly && CE.Events[W].Ord == Mode::Init;
                });
                InitOnlyScReads += InitOnly;
              }
              return ++WalkLeaves < LeafCap;
            },
            [&](const CandidateExecution &CE, const DerivedTriple &D) {
              ++Prefixes;
              Check(CE, D, "prefix");
              // Every read but the last meets the admission when pruning,
              // so such a prefix satisfies the tot-independent axioms
              // and an acyclic hb, checked here from scratch.
              size_t ReadBytes = 0;
              for (const Event &R : CE.Events)
                ReadBytes += R.isRead() ? R.readEnd() - R.readBegin() : 0;
              DerivedTriple Ref = CE.derived(Spec.Sw);
              if (Prune && CE.Rbf.size() < ReadBytes && Unsound.empty() &&
                  (!checkTotIndependentAxioms(CE, Ref, Spec) ||
                   !Ref.Hb.isIrreflexive()))
                Unsound = "admitted prefix with rbf\n" + CE.toString();
            });
        EXPECT_EQ(Mismatch, "") << NP.Name << " under " << Spec.Name
                                << (Prune ? " pruned" : " unpruned");
        EXPECT_EQ(Unsound, "") << NP.Name << " under " << Spec.Name;
      }
  EXPECT_GT(Prefixes, Leaves);
  EXPECT_GT(InitOnlyScReads, 10000u);
  EXPECT_GT(Rmws, 10000u);
}

TEST(JsWalk, OutcomeDoorEqualsSummarizedEnumerate) {
  // enumerate() never reduces and never uses the static tier, so under
  // Reduction or StaticFastPath the door's counters differ by design and
  // only its outcomes are compared.
  for (const NamedProgram &NP : walkPrograms(60)) {
    bool Small = programEventUpperBound(NP.P) <= 64;
    for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised()})
      for (SolverKind Kind : allSolverKinds()) {
        if (Kind == SolverKind::Brute && !Small)
          continue; // the brute oracle cannot order hundreds of events
        JsModel M(Spec, SolverConfig{Kind});
        for (unsigned Threads : {1u, 4u})
          for (bool Prune : {true, false})
            for (bool Reduce : {false, true})
              for (bool Static : {false, true}) {
                // The unpruned space of a wide program, or of some random
                // ones, runs to millions of candidates.
                if (!Prune && (NP.Random || !Small))
                  continue;
                ExecutionEngine E(
                    EngineConfig{Threads, Prune, false, Reduce, Static});
                OutcomeSummary S = E.enumerateOutcomes(NP.P, M);
                EnumerationResult R = E.enumerate(NP.P, M);
                std::string At = NP.Name + " " + Spec.Name + " " +
                                 solverKindName(Kind) + " threads " +
                                 std::to_string(Threads) + " prune " +
                                 std::to_string(Prune) + " reduce " +
                                 std::to_string(Reduce) + " static " +
                                 std::to_string(Static);
                EXPECT_EQ(strings(S.Allowed), R.outcomeStrings()) << At;
                if (Reduce || Static)
                  continue;
                EXPECT_EQ(S.CandidatesConsidered, R.CandidatesConsidered)
                    << At;
                EXPECT_EQ(S.ValidCandidates, R.ValidCandidates) << At;
              }
      }
  }
}
