//===- tests/datarace_test.cpp - Fig. 7 data races and SC checking --------===//

#include "analysis/StaticAnalysis.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"
#include "litmus/PathEnum.h"
#include "service/LitmusService.h"
#include "solver/TotSolver.h"
#include "support/Str.h"
#include "tools/LitmusParser.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(DataRace, Fig2IsRaceFree) {
  EXPECT_TRUE(isRaceFree(fig2Execution(), ModelSpec::revised()));
  EXPECT_TRUE(isRaceFree(fig2Execution(), ModelSpec::original()));
}

TEST(DataRace, Fig8IsRaceFree) {
  // The SC-DRF counter-example is data-race-free — that is the point.
  EXPECT_TRUE(isRaceFree(fig8Execution(), ModelSpec::original()));
  EXPECT_TRUE(isRaceFree(fig8Execution(), ModelSpec::revised()));
}

TEST(DataRace, UnsynchronizedWriteReadRaces) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 2});
  auto Races = findDataRaces(CE, ModelSpec::revised());
  ASSERT_EQ(Races.size(), 1u);
  EXPECT_EQ(Races[0], std::make_pair(EventId(1), EventId(2)));
}

TEST(DataRace, SameRangeScAtomicsDoNotRace) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::SeqCst, 0, 4, 2));
  CandidateExecution CE(std::move(Evs));
  EXPECT_TRUE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(DataRace, DifferentRangeScAtomicsDoRace) {
  // Mixed-size twist (Fig. 7): overlapping SC atomics of different ranges
  // are a race.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::SeqCst, 0, 2, 2));
  CandidateExecution CE(std::move(Evs));
  EXPECT_FALSE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(DataRace, TwoReadsNeverRace) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRead(1, 0, Mode::Unordered, 0, 4, 0));
  Evs.push_back(makeRead(2, 1, Mode::Unordered, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K) {
    CE.Rbf.push_back({K, 0, 1});
    CE.Rbf.push_back({K, 0, 2});
  }
  EXPECT_TRUE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(DataRace, DisjointAccessesDoNotRace) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 4, 4, 2));
  CandidateExecution CE(std::move(Evs));
  EXPECT_TRUE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(DataRace, HbOrderingRemovesTheRace) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 2});
  CE.Asw.set(1, 2); // e.g. thread-spawn ordering
  EXPECT_TRUE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(DataRace, InitNeverRaces) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  EXPECT_TRUE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(DataRace, PartialOverlapUnorderedRace) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 2, 4, 2));
  CandidateExecution CE(std::move(Evs));
  EXPECT_FALSE(isRaceFree(CE, ModelSpec::revised()));
}

TEST(SeqConsistency, Fig2IsSC) {
  EXPECT_TRUE(isSequentiallyConsistent(fig2Execution()));
}

TEST(SeqConsistency, Fig8IsNotSC) {
  // No interleaving of Fig. 8 explains the SC load returning 1 while the
  // later plain load returns 2.
  EXPECT_FALSE(isSequentiallyConsistent(fig8Execution()));
}

TEST(SeqConsistency, WitnessOrderExplainsReads) {
  std::vector<unsigned> Order;
  ASSERT_TRUE(isSequentiallyConsistent(fig2Execution(), &Order));
  ASSERT_EQ(Order.size(), 5u);
  EXPECT_EQ(Order.front(), 0u) << "Init is placed first";
}

TEST(SeqConsistency, StaleFlagReadIsSC) {
  // Reading flag = 0 (Init) before the writes is a fine interleaving.
  CandidateExecution CE = fig2Execution();
  // Rewire: the flag read takes 0 from Init, the message read takes 3.
  CE.Rbf.clear();
  CE.Events[3].ReadBytes = bytesOfValue(0, 4);
  for (unsigned K = 4; K < 8; ++K)
    CE.Rbf.push_back({K, 0, 3});
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 4});
  EXPECT_TRUE(isSequentiallyConsistent(CE));
}

TEST(SeqConsistency, CoherenceViolationIsNotSC) {
  // r1 reads the second write, r2 (later in the same thread) the first.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeWrite(2, 0, Mode::Unordered, 0, 4, 2));
  Evs.push_back(makeRead(3, 1, Mode::Unordered, 0, 4, 2));
  Evs.push_back(makeRead(4, 1, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 2);
  CE.Sb.set(3, 4);
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 2, 3});
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 4});
  EXPECT_FALSE(isSequentiallyConsistent(CE));
}

TEST(SeqConsistency, MixedSizeTearingIsNotSC) {
  // Fig. 14's execution mixes Init and write bytes: no interleaving
  // produces that value.
  EXPECT_FALSE(isSequentiallyConsistent(fig14Execution()));
}

TEST(SeqConsistency, RmwChainIsSC) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRMW(1, 0, 0, 4, 0, 1));
  Evs.push_back(makeRMW(2, 1, 0, 4, 1, 2));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1});
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 2});
  EXPECT_TRUE(isSequentiallyConsistent(CE));
}

//===----------------------------------------------------------------------===//
// Static vs. dynamic differential: the flow-insensitive certificate
// (analysis::classify) against the execution-level Fig. 7 judgment above.
//===----------------------------------------------------------------------===//

namespace {

/// The corpora the service benches and determinism tests run on, as
/// parsed programs.
std::vector<LitmusJob> allCorpusJobs() {
  std::vector<LitmusJob> Jobs = differentialCorpusJobs();
  for (const LitmusJob &J : largeCorpusJobs())
    Jobs.push_back(J);
  return Jobs;
}

} // namespace

TEST(StaticDynamic, CorpusCertificateImpliesDynamicRaceFreedom) {
  // Soundness over the real corpora: whenever the static tier certifies a
  // program, the witness-carrying dynamic door must find no Fig. 7 race
  // and every valid execution must be SC — under both JS variants (the
  // certificate is what lets the fast path skip the original model's
  // non-SC behaviours too).
  ExecutionEngine E;
  unsigned Certified = 0;
  for (const LitmusJob &Job : allCorpusJobs()) {
    std::optional<LitmusFile> File = parseLitmus(Job.Litmus);
    ASSERT_TRUE(File) << Job.Name;
    analysis::StaticClassification C = analysis::classify(File->P);
    if (!C.StaticallyDrf) {
      EXPECT_FALSE(C.MayRaces.empty()) << Job.Name;
      continue;
    }
    ++Certified;
    EXPECT_TRUE(C.MayRaces.empty()) << Job.Name;
    // The witness door enumerates every candidate execution; keep it to
    // programs where that is tractable (the certified large-corpus
    // entries are pinned by the service table matrix below instead).
    if (programEventUpperBound(File->P) > 20)
      continue;
    for (const ModelSpec &Spec :
         {ModelSpec::original(), ModelSpec::revised()}) {
      ScDrfReport Rep = E.scDrf(File->P, JsModel(Spec));
      EXPECT_TRUE(Rep.DataRaceFree) << Job.Name << " under " << Spec.Name;
      EXPECT_TRUE(Rep.AllValidExecutionsSC)
          << Job.Name << " under " << Spec.Name;
    }
  }
  EXPECT_GE(Certified, 3u) << "corpus lost its statically-DRF entries";
}

TEST(StaticDynamic, RandomizedSweepCertificateIsSound) {
  // 200 seeded random small programs: statically-DRF implies no dynamic
  // race witness, and the engine's fast path agrees with the full walk on
  // every program (certified or not) under both JS variants.
  std::mt19937 Rng(0x57A71C);
  EngineConfig FastCfg;
  FastCfg.StaticFastPath = true;
  ExecutionEngine Fast(FastCfg);
  ExecutionEngine Full;
  unsigned Certified = 0;
  for (int I = 0; I < 200; ++I) {
    Program P = randomSmallProgram(Rng);
    analysis::StaticClassification C = analysis::classify(P);
    Certified += C.StaticallyDrf;
    for (const ModelSpec &Spec :
         {ModelSpec::original(), ModelSpec::revised()}) {
      JsModel M(Spec);
      if (C.StaticallyDrf) {
        ScDrfReport Rep = Full.scDrf(P, M);
        EXPECT_TRUE(Rep.DataRaceFree)
            << "program #" << I << " under " << Spec.Name;
        EXPECT_TRUE(Rep.AllValidExecutionsSC)
            << "program #" << I << " under " << Spec.Name;
      }
      EXPECT_EQ(Fast.enumerateOutcomes(P, M).outcomeStrings(),
                Full.enumerateOutcomes(P, M).outcomeStrings())
          << "program #" << I << " under " << Spec.Name;
    }
  }
  // The generator must keep exercising both sides of the certificate.
  EXPECT_GE(Certified, 5u);
  EXPECT_LE(Certified, 195u);
}

TEST(StaticDynamic, ServiceFastPathTablesByteIdenticalToFull) {
  // The acceptance matrix: statically-DRF verdict tables must be
  // byte-identical to the full enumeration across the small and large
  // corpora, both tot-order solvers, workers 1/2/4, and reduce on|off.
  std::vector<LitmusJob> Base = allCorpusJobs();
  SolverKind Saved = defaultSolverKind();
  unsigned FastPathHits = 0;
  for (SolverKind Kind : {SolverKind::Brute, SolverKind::Propagate}) {
    setDefaultSolverKind(Kind);
    for (bool Reduce : {true, false}) {
      std::vector<LitmusJob> FullJobs = Base;
      std::vector<LitmusJob> FastJobs = Base;
      for (LitmusJob &J : FullJobs) {
        J.Static = false;
        J.Reduce = Reduce;
      }
      for (LitmusJob &J : FastJobs)
        J.Reduce = Reduce;
      LitmusService Reference(ServiceConfig::sequential());
      std::vector<LitmusJobResult> Ref = Reference.run(FullJobs);
      for (unsigned Workers : {1u, 2u, 4u}) {
        ServiceConfig Cfg;
        Cfg.Workers = Workers;
        LitmusService Service(Cfg);
        std::vector<LitmusJobResult> Got = Service.run(FastJobs);
        ASSERT_EQ(Got.size(), Ref.size());
        for (size_t I = 0; I < Got.size(); ++I) {
          const std::string Where = Got[I].Name + " solver=" +
                                    solverKindName(Kind) +
                                    " reduce=" + (Reduce ? "on" : "off") +
                                    " workers=" + std::to_string(Workers);
          EXPECT_EQ(Got[I].Status, Ref[I].Status) << Where;
          EXPECT_EQ(Got[I].AllowedByBackend, Ref[I].AllowedByBackend)
              << Where;
          EXPECT_EQ(Got[I].SoundnessViolations, Ref[I].SoundnessViolations)
              << Where;
          EXPECT_EQ(Got[I].ObservableWeakenings,
                    Ref[I].ObservableWeakenings)
              << Where;
          EXPECT_FALSE(Ref[I].DrfFastPath) << Where;
          if (Workers == 1)
            FastPathHits += Got[I].DrfFastPath;
        }
      }
    }
  }
  setDefaultSolverKind(Saved);
  // The matrix must actually exercise the fast path, not just agree
  // trivially: each (solver, reduce) pass serves the statically-DRF
  // corpus entries through it.
  EXPECT_GE(FastPathHits, 12u);
}

TEST(StaticDynamic, LintDiagnosticsCarryFixtureSourceLines) {
  // Byte-for-byte the tests/fixtures/lint_findings.litmus fixture (the
  // jsmm_lint_findings ctests run the CLI over the file itself); the
  // classification's diagnostics must map to the known source lines
  // through the parser's InstrLines table.
  const char *Src = R"(# jsmm-lint regression fixture: one program that trips five findings
# across four lint kinds with known source lines (tests/datarace_test.cpp
# and the jsmm_lint_findings ctests pin the diagnostics and their lines).
name lint-findings
buffer 64
thread
  store u32 0 = 1
  store u32 32 = 7
thread
  r0 = load u32 0
  r1 = load u32 16
  if r0 == 9
    store u32 0 = 2
  end
thread
  store u8 48 = 5
  r0 = load u8 48
  if r0 == 0
    store u8 0 = 3
  end
)";
  std::optional<LitmusFile> File = parseLitmus(Src);
  ASSERT_TRUE(File);
  analysis::StaticClassification C = analysis::classify(File->P);
  std::multiset<std::pair<analysis::LintKind, unsigned>> Found;
  for (const analysis::LintDiag &D : C.Lints) {
    ASSERT_GE(D.PreIdx, 0) << D.Message;
    Found.emplace(D.Kind,
                  File->InstrLines[D.Thread][static_cast<unsigned>(D.PreIdx)]);
  }
  std::multiset<std::pair<analysis::LintKind, unsigned>> Want = {
      {analysis::LintKind::DeadStore, 8u},
      {analysis::LintKind::UncoveredRead, 11u},
      {analysis::LintKind::DeadBranch, 12u},
      // The third thread needs the value tier: the store shadows init, so
      // the load is the constant 5 and its `== 0` branch is dead.
      {analysis::LintKind::ConstantRead, 17u},
      {analysis::LintKind::DeadBranch, 18u},
  };
  EXPECT_EQ(Found, Want);
}
