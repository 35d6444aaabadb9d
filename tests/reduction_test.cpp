//===- tests/reduction_test.cpp - Equivalence-aware enumeration tests -----===//
///
/// \file
/// Golden-equivalence coverage for EngineConfig::Reduction (the JS
/// justifier's rf sleep-set keys) and the duplicate-thread detector
/// (analysis/Symmetry):
///
///   - reduced enumeration must produce byte-identical differential
///     verdict tables (every column) on the small and large corpora,
///     across thread counts and both tot-order solvers;
///   - the detector must find exact and renamed thread classes, and
///     must NOT merge near-symmetric threads (differing stored values,
///     access widths, modes, or non-private renamed bytes);
///   - a seeded randomized sweep diffs reduced vs. unreduced outcome sets
///     over small programs on both relation tiers;
///   - the wide-SB/IRIW-chain family must show the order-of-magnitude
///     explored-candidate drop the reduction exists for.
///
//===----------------------------------------------------------------------===//

#include "analysis/Symmetry.h"
#include "solver/TotSolver.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace jsmm;

namespace {

EngineConfig cfg(unsigned Threads, bool Reduce) {
  EngineConfig C;
  C.Threads = Threads;
  C.Prune = true;
  C.Reduction = Reduce;
  return C;
}

LitmusJobResult tableOf(const DiffCase &C, const EngineConfig &Cfg) {
  return differentialTable(C.program(), ExecutionEngine(Cfg));
}

void expectSameReport(const LitmusJobResult &Base, const LitmusJobResult &Red,
                      const std::string &Context) {
  EXPECT_EQ(Base.AllowedByBackend, Red.AllowedByBackend) << Context;
  EXPECT_EQ(Base.SoundnessViolations, Red.SoundnessViolations) << Context;
  EXPECT_EQ(Base.ObservableWeakenings, Red.ObservableWeakenings) << Context;
}

//===----------------------------------------------------------------------===//
// Golden equivalence on the differential corpora
//===----------------------------------------------------------------------===//

TEST(Reduction, SmallCorpusMatchesUnreducedAcrossThreads) {
  for (const DiffCase &C : differentialCorpus()) {
    LitmusJobResult Base = tableOf(C, cfg(1, false));
    for (unsigned T : {1u, 2u, 4u}) {
      LitmusJobResult Red = tableOf(C, cfg(T, true));
      expectSameReport(Base, Red,
                       C.Name + " reduced, threads=" + std::to_string(T));
    }
  }
}

TEST(Reduction, SmallCorpusMatchesUnreducedWithBruteSolver) {
  SolverKind Saved = defaultSolverKind();
  setDefaultSolverKind(SolverKind::Brute);
  for (const DiffCase &C : differentialCorpus()) {
    LitmusJobResult Base = tableOf(C, cfg(1, false));
    for (unsigned T : {1u, 2u}) {
      LitmusJobResult Red = tableOf(C, cfg(T, true));
      expectSameReport(Base, Red,
                       C.Name + " brute, threads=" + std::to_string(T));
    }
  }
  setDefaultSolverKind(Saved);
}

TEST(ReductionLarge, LargeCorpusMatchesUnreducedAcrossThreads) {
  for (const DiffCase &C : largeDifferentialCorpus()) {
    // One unreduced pass per case keeps this test's cost close to the
    // existing large-corpus golden test; the reduced passes are cheap.
    LitmusJobResult Base = tableOf(C, cfg(4, false));
    for (unsigned T : {1u, 2u, 4u}) {
      LitmusJobResult Red = tableOf(C, cfg(T, true));
      expectSameReport(Base, Red,
                       C.Name + " reduced, threads=" + std::to_string(T));
    }
  }
}

//===----------------------------------------------------------------------===//
// Duplicate-thread detection: positive cases
//===----------------------------------------------------------------------===//

TEST(Symmetry, ExactThreadClassesDetected) {
  Program P(8);
  for (int I = 0; I < 3; ++I) {
    ThreadBuilder T = P.thread();
    T.store(Acc::u32(0), 1);
  }
  ThreadBuilder R = P.thread();
  R.load(Acc::u32(0));

  ThreadSymmetry S = threadSymmetry(P);
  ASSERT_EQ(S.Classes.size(), 1u);
  EXPECT_EQ(S.Classes[0], (std::vector<unsigned>{0, 1, 2}));
  EXPECT_TRUE(S.Exact[0]);
}

TEST(Symmetry, RenamedFillerThreadsFormOneClass) {
  // A core thread on shared bytes plus two fillers writing private scratch
  // cells: identical up to the byte renaming 4 <-> 5, both bytes private.
  Program P(8);
  ThreadBuilder Core = P.thread();
  Core.store(Acc::u32(0), 1);
  ThreadBuilder F0 = P.thread();
  F0.store(Acc::u8(4), 1);
  ThreadBuilder F1 = P.thread();
  F1.store(Acc::u8(5), 1);

  ThreadSymmetry S = threadSymmetry(P);
  ASSERT_EQ(S.Classes.size(), 1u);
  EXPECT_EQ(S.Classes[0], (std::vector<unsigned>{1, 2}));
  EXPECT_FALSE(S.Exact[0]);
}

//===----------------------------------------------------------------------===//
// Duplicate-thread detection: near-symmetric programs stay distinct
//===----------------------------------------------------------------------===//

/// Asserts \p P has no symmetry classes AND that reduced enumeration
/// still matches unreduced (the reduction must not depend on merging).
void expectNoMergeAndEquivalent(const Program &P, const char *What) {
  EXPECT_TRUE(threadSymmetry(P).Classes.empty()) << What;
  ExecutionEngine Off(cfg(1, false)), On(cfg(1, true));
  for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised(),
                         ModelSpec::revisedStrongTearFree()}) {
    JsModel M(Spec);
    OutcomeSummary A = Off.enumerateOutcomes(P, M);
    OutcomeSummary B = On.enumerateOutcomes(P, M);
    EXPECT_EQ(A.outcomeStrings(), B.outcomeStrings())
        << What << " under " << Spec.Name;
  }
}

TEST(Symmetry, NearSymmetricStoreValuesNotMerged) {
  // SB variant: same skeleton, different data values.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.load(Acc::u32(4));
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u32(4), 2); // value differs from thread 0's store
  T1.load(Acc::u32(0));
  // The threads are not even renamed-equal (values differ), so no class.
  expectNoMergeAndEquivalent(P, "sb-differing-values");
}

TEST(Symmetry, NearSymmetricWidthsNotMerged) {
  // MP variant: writer threads share a skeleton but differ in dv widths.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::dataView(0, 2), 1);
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::dataView(4, 3), 1); // same kind/value, different width
  ThreadBuilder R = P.thread();
  R.load(Acc::dataView(0, 2));
  R.load(Acc::dataView(4, 3));
  expectNoMergeAndEquivalent(P, "mp-differing-widths");
}

TEST(Symmetry, NearSymmetricModesNotMerged) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u32(4), 1); // Unordered vs SeqCst
  ThreadBuilder R = P.thread();
  R.load(Acc::u32(0));
  R.load(Acc::u32(4));
  expectNoMergeAndEquivalent(P, "mp-differing-modes");
}

TEST(Symmetry, RenamedBytesMustBePrivate) {
  // Fillers writing bytes 4 and 5 look renamed-equal, but byte 5 is also
  // read by a third thread — the renaming is not an automorphism.
  Program P(8);
  ThreadBuilder F0 = P.thread();
  F0.store(Acc::u8(4), 1);
  ThreadBuilder F1 = P.thread();
  F1.store(Acc::u8(5), 1);
  ThreadBuilder R = P.thread();
  R.load(Acc::u8(5));
  expectNoMergeAndEquivalent(P, "non-private-renamed-byte");
}

//===----------------------------------------------------------------------===//
// Randomized small-program sweep
//===----------------------------------------------------------------------===//

// The generator itself lives in TestUtil.h (randomSmallProgram) so the
// static-analysis differential sweep in datarace_test.cpp draws from the
// same program distribution.
using jsmm::testutil::randomSmallProgram;

Program randomProgram(std::mt19937 &Rng) { return randomSmallProgram(Rng); }

TEST(Reduction, RandomizedSweepMatchesUnreduced) {
  std::mt19937 Rng(0xA11CE5);
  ExecutionEngine Off(cfg(1, false));
  ExecutionEngine On1(cfg(1, true));
  ExecutionEngine On2(cfg(2, true));
  for (int I = 0; I < 120; ++I) {
    Program P = randomProgram(Rng);
    ModelSpec Spec = I % 3 == 0   ? ModelSpec::original()
                     : I % 3 == 1 ? ModelSpec::revised()
                                  : ModelSpec::revisedStrongTearFree();
    JsModel M(Spec);
    std::vector<std::string> Base = Off.enumerateOutcomes(P, M).outcomeStrings();
    EXPECT_EQ(Base, On1.enumerateOutcomes(P, M).outcomeStrings())
        << "sweep #" << I << " (" << Spec.Name << ", threads=1)";
    EXPECT_EQ(Base, On2.enumerateOutcomes(P, M).outcomeStrings())
        << "sweep #" << I << " (" << Spec.Name << ", threads=2)";
  }
}

//===----------------------------------------------------------------------===//
// The point of the exercise: candidate-count drop
//===----------------------------------------------------------------------===//

/// The mixed rendering of the wide-SB family member with \p Fillers filler
/// threads (mirrors largeDifferentialCorpus's WideSb shape).
Program wideSbMixed(unsigned Fillers) {
  UniProgram P(2 + 3 * Fillers);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  P.load(T0, 1, Mode::Unordered);
  unsigned T1 = P.thread();
  P.store(T1, 1, 1, Mode::Unordered);
  P.load(T1, 0, Mode::Unordered);
  for (unsigned F = 0; F < Fillers; ++F) {
    unsigned T = P.thread();
    for (unsigned L = 0; L < 3; ++L)
      P.store(T, 2 + 3 * F + L, 1 + L, Mode::Unordered);
  }
  return mixedFromUni(P);
}

/// The 9-thread IRIW chain over u8 cells (mirrors iriw-chain-9t).
Program iriwChain() {
  Program P(64);
  unsigned NextOff = 2;
  auto Filler = [&](ThreadBuilder &T, unsigned Count) {
    for (unsigned I = 0; I < Count; ++I)
      T.store(Acc::u8(NextOff++), 1);
  };
  ThreadBuilder W0 = P.thread();
  W0.store(Acc::u8(0), 1);
  Filler(W0, 9);
  ThreadBuilder W1 = P.thread();
  W1.store(Acc::u8(1), 1);
  Filler(W1, 9);
  ThreadBuilder R0 = P.thread();
  R0.load(Acc::u8(0));
  R0.load(Acc::u8(1));
  ThreadBuilder R1 = P.thread();
  R1.load(Acc::u8(1));
  R1.load(Acc::u8(0));
  for (unsigned T = 0; T < 5; ++T) {
    ThreadBuilder F = P.thread();
    Filler(F, 8);
  }
  return P;
}

TEST(ReductionLarge, WideSbIriwFamilyCandidateDrop) {
  JsModel M(ModelSpec::revised());
  ExecutionEngine Off(cfg(1, false)), On(cfg(1, true));
  uint64_t Unreduced = 0, Reduced = 0;
  auto Run = [&](const Program &P, const char *Name) {
    OutcomeSummary A = Off.enumerateOutcomes(P, M);
    OutcomeSummary B = On.enumerateOutcomes(P, M);
    EXPECT_EQ(A.outcomeStrings(), B.outcomeStrings()) << Name;
    Unreduced += A.CandidatesConsidered;
    Reduced += B.CandidatesConsidered;
  };
  Run(wideSbMixed(10), "sb-wide-66");
  Run(wideSbMixed(20), "sb-wide-126");
  Run(iriwChain(), "iriw-chain-9t");
  ASSERT_GT(Reduced, 0u);
  double Drop = static_cast<double>(Unreduced) / static_cast<double>(Reduced);
  EXPECT_GE(Drop, 10.0) << "explored-candidate drop on the wide-SB/IRIW "
                           "family regressed: "
                        << Unreduced << " -> " << Reduced;
}

} // namespace
