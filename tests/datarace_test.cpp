//===- tests/datarace_test.cpp - Fig. 7 data races and SC checking --------===//

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"
#include "litmus/PathEnum.h"
#include "service/LitmusService.h"
#include "solver/TotSolver.h"
#include "support/LinearExtensions.h"
#include "support/Str.h"
#include "tools/LitmusParser.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <map>
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

TEST(SeqConsistency, SecondBufferInitDoesNotBlockInterleaving) {
  // One Init event per buffer: both precede every access, but neither
  // precedes the other, so an unused second buffer changes nothing.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeInit(1, 4, /*Block=*/1));
  Evs.push_back(makeWrite(2, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeRead(3, 1, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 2, 3});
  EXPECT_TRUE(isSequentiallyConsistent(CE));
}

namespace {

/// \returns true when \p Order is a permutation of \p CE's events that
/// extends sb ∪ asw ∪ Init-first and, replayed over a byte memory, gives
/// every read byte the writer its rbf edge names.
bool replays(const CandidateExecution &CE, const std::vector<unsigned> &Order) {
  unsigned N = CE.numEvents();
  if (Order.size() != N)
    return false;
  std::vector<unsigned> Pos(N, N);
  for (unsigned I = 0; I < N; ++I) {
    if (Order[I] >= N || Pos[Order[I]] != N)
      return false;
    Pos[Order[I]] = I;
  }
  bool Extends = true;
  CE.Sb.unioned(CE.Asw).forEachPair([&](unsigned A, unsigned B) {
    Extends = Extends && Pos[A] < Pos[B];
  });
  for (const Event &A : CE.Events)
    for (const Event &B : CE.Events)
      if (A.Ord == Mode::Init && B.Ord != Mode::Init && Pos[A.Id] > Pos[B.Id])
        Extends = false;
  if (!Extends)
    return false;
  std::map<std::pair<unsigned, unsigned>, unsigned> Expected, LastWriter;
  for (const RbfEdge &E : CE.Rbf)
    Expected[{E.Reader, E.Loc}] = E.Writer;
  for (unsigned Id : Order) {
    const Event &E = CE.Events[Id];
    for (unsigned Loc = E.readBegin(); Loc < E.readEnd(); ++Loc) {
      auto It = LastWriter.find({E.Block, Loc});
      if (It == LastWriter.end() || It->second != Expected.at({Id, Loc}))
        return false;
    }
    for (unsigned Loc = E.writeBegin(); Loc < E.writeEnd(); ++Loc)
      LastWriter[{E.Block, Loc}] = Id;
  }
  return true;
}

/// The brute-force reference: some linear extension of sb ∪ asw ∪
/// Init-first replays.
bool someInterleavingReplays(const CandidateExecution &CE) {
  Relation Base = CE.Sb.unioned(CE.Asw);
  for (const Event &A : CE.Events)
    for (const Event &B : CE.Events)
      if (A.Ord == Mode::Init && B.Ord != Mode::Init)
        Base.set(A.Id, B.Id);
  bool Found = false;
  forEachLinearExtension(Base, CE.allEventsMask(),
                         [&](const std::vector<unsigned> &Order) {
                           Found = replays(CE, Order);
                           return !Found;
                         });
  return Found;
}

} // namespace

TEST(SeqConsistency, AgreesWithBruteForceReplay) {
  // The first 500 candidates of each of 200 generated programs of at most
  // 8 events, every other one with an unused second buffer (a second Init
  // event; mixed-size reads make the full spaces millions large): the
  // interleaving search, with its greedy placement, must answer as the
  // replay of every linear extension does, and its witness must replay.
  std::mt19937 Rng(0x5C0DE);
  const ExecutionEngine Engine;
  unsigned Programs = 0, Sc = 0, NonSc = 0;
  for (int I = 0; Programs < 200 && I < 5000; ++I) {
    Program P = randomSmallProgram(Rng);
    if (I % 2 == 1)
      P.addBuffer(4);
    if (programEventUpperBound(P) > 8)
      continue;
    ++Programs;
    unsigned Visited = 0;
    Engine.forEachCandidate(P, [&](const CandidateExecution &CE,
                                   const Outcome &) {
      std::vector<unsigned> Order;
      bool Got = isSequentiallyConsistent(CE, &Order);
      EXPECT_EQ(Got, someInterleavingReplays(CE))
          << "program #" << I << "\n" << CE.toString();
      if (Got) {
        EXPECT_TRUE(replays(CE, Order))
            << "program #" << I << "\n" << CE.toString();
      }
      ++(Got ? Sc : NonSc);
      return ++Visited < 500;
    });
  }
  EXPECT_EQ(Programs, 200u);
  // The sweep must exercise both answers.
  EXPECT_GE(Sc, 100u);
  EXPECT_GE(NonSc, 100u);
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
  // race witness and an SC interleaving table equal to the full walk, and
  // the statically pruned walk agrees with the full walk on every program
  // (certified or not) under both JS variants.
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
    std::vector<std::string> Sc;
    if (C.StaticallyDrf)
      for (const Outcome &O : analysis::enumerateScOutcomes(P))
        Sc.push_back(O.toString());
    for (const ModelSpec &Spec :
         {ModelSpec::original(), ModelSpec::revised()}) {
      JsModel M(Spec);
      std::vector<std::string> Want =
          Full.enumerateOutcomes(P, M).outcomeStrings();
      if (C.StaticallyDrf) {
        ScDrfReport Rep = Full.scDrf(P, M);
        EXPECT_TRUE(Rep.DataRaceFree)
            << "program #" << I << " under " << Spec.Name;
        EXPECT_TRUE(Rep.AllValidExecutionsSC)
            << "program #" << I << " under " << Spec.Name;
        EXPECT_EQ(Sc, Want) << "program #" << I << " under " << Spec.Name;
      }
      EXPECT_EQ(Fast.enumerateOutcomes(P, M).outcomeStrings(), Want)
          << "program #" << I << " under " << Spec.Name;
    }
  }
  // The generator must keep exercising both sides of the certificate.
  EXPECT_GE(Certified, 5u);
  EXPECT_LE(Certified, 195u);
}

TEST(StaticDynamic, SingleModelShortcutMatchesFullWalk) {
  // Every single-model backend on each statically-DRF corpus program and
  // on the certified random small programs: the job answered from the SC
  // table gives the verdicts of its Static=false job, and DrfFastPath is
  // set exactly when the certificate holds and the backend applies.
  std::vector<LitmusJob> Programs;
  for (const LitmusJob &Job : allCorpusJobs()) {
    std::optional<LitmusFile> File = parseLitmus(Job.Litmus);
    ASSERT_TRUE(File) << Job.Name;
    if (analysis::classify(File->P).StaticallyDrf)
      Programs.push_back(Job);
  }
  EXPECT_GE(Programs.size(), 3u) << "corpus lost its statically-DRF entries";
  // Two certified programs armv8 refuses: a nonzero init, and 70 SeqCst
  // stores, past its 64-event cap once compiled.
  Programs.push_back({"sc-init", "name sc-init\nbuffer 8\ninit u32 4 = 7\n"
                                 "thread\n  store.sc u32 4 = 1\n"
                                 "thread\n  r0 = load.sc u32 4\n"});
  std::string Stores = "name sc-stores-70\nbuffer 280\nthread\n";
  for (unsigned I = 0; I < 70; ++I)
    Stores += "  store.sc u32 " + std::to_string(4 * I) + " = 1\n";
  Stores += "thread\n  r0 = load.sc u32 0\n";
  Programs.push_back({"sc-stores-70", Stores});
  size_t Fixed = Programs.size();
  std::mt19937 Rng(0x57A71C);
  for (int I = 0; I < 200; ++I) {
    Program P = randomSmallProgram(Rng);
    if (analysis::classify(P).StaticallyDrf)
      Programs.push_back({"random-" + std::to_string(I),
                          emitLitmus(LitmusFile{P, {}, {}, {}})});
  }
  LitmusService Service(ServiceConfig::sequential());
  unsigned ArmServed = 0, ArmRefused = 0;
  for (const LitmusJob &Source : Programs) {
    for (const BackendInfo &B : backends()) {
      LitmusJob Job = Source;
      Job.Model = B.Name;
      LitmusJob FullJob = Job;
      FullJob.Static = false;
      LitmusJobResult Got = Service.runOne(Job);
      LitmusJobResult Ref = Service.runOne(FullJob);
      const std::string Where = Job.Name + " model=" + B.Name;
      EXPECT_TRUE(Got.StaticallyDrf) << Where;
      EXPECT_EQ(Got.Status, Ref.Status) << Where;
      EXPECT_EQ(Got.AllowedByBackend, Ref.AllowedByBackend) << Where;
      EXPECT_EQ(Got.DrfFastPath, Got.ok()) << Where;
      EXPECT_FALSE(Ref.DrfFastPath) << Where;
      ArmServed += Got.DrfFastPath && B.K == BackendInfo::Kind::Armv8;
      ArmRefused += !Got.ok() && B.K == BackendInfo::Kind::Armv8;
    }
  }
  // The random programs must contribute, and armv8 must be served and
  // refused.
  EXPECT_GE(Programs.size() - Fixed, 5u);
  EXPECT_GT(ArmServed, 0u);
  EXPECT_EQ(ArmRefused, 2u);
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
