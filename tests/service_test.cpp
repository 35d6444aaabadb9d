//===- tests/service_test.cpp - Batch litmus service ----------------------===//
//
// Covers the service layer introduced for the batch/async litmus
// direction: batch determinism across worker counts, per-job error
// isolation (one too-large or malformed program never poisons the batch),
// verdict-cache behaviour, and the hardened Relation / topologicalOrder
// failure paths the service forces through the lower layers.
//
//===----------------------------------------------------------------------===//

#include "service/LitmusService.h"

#include "engine/ExecutionEngine.h"
#include "support/CapacityError.h"
#include "support/DynRelation.h"
#include "support/Relation.h"
#include "targets/Differential.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

using namespace jsmm;

namespace {

const char *GoodMp = R"(name mp
buffer 8
thread
  store u32 0 = 1
  store.sc u32 4 = 1
thread
  r0 = load.sc u32 4
  r1 = load u32 0
forbid 1:r0=1 1:r1=0
)";

/// A straight-line program whose event universe exceeds the *dynamic*
/// relation cap (DynRelation::MaxSize, 1024 since the SAT tier raised
/// it) — the only size that still reports too-large.
std::string tooLargeLitmus() {
  std::string Out = "name too-big\nbuffer 64\nthread\n";
  for (unsigned I = 0; I < 1200; ++I)
    Out += "  store u32 " + std::to_string(4 * (I % 8)) + " = 1\n";
  return Out;
}

/// A 71-event program: beyond the fixed 64-event tier, comfortably inside
/// the dynamic one. PR 4 could only reject it; it now gets real verdicts.
std::string formerlyTooLargeLitmus() {
  std::string Out = "name formerly-too-big\nbuffer 64\nthread\n";
  Out += "  store u32 0 = 1\n";
  for (unsigned I = 0; I < 68; ++I)
    Out += "  store u32 " + std::to_string(4 + 4 * (I % 8)) + " = 1\n";
  Out += "thread\n  r0 = load u32 0\n";
  Out += "allow 1:r0=1\nallow 1:r0=0\nforbid 1:r0=2\n";
  return Out;
}

/// A canonical-form-insensitive rendering of a result, for cross-worker
/// equality checks (FromCache deliberately excluded — it depends on
/// scheduling).
std::string fingerprint(const LitmusJobResult &R) {
  std::ostringstream Out;
  Out << jobStatusName(R.Status) << "|" << R.Name << "|" << R.Model << "|"
      << R.Error << "|";
  for (const auto &[Backend, Allowed] : R.AllowedByBackend) {
    Out << Backend << "=[";
    for (const std::string &O : Allowed)
      Out << O << ";";
    Out << "]";
  }
  for (const std::string &S : R.SoundnessViolations)
    Out << "S:" << S;
  for (const std::string &S : R.ObservableWeakenings)
    Out << "W:" << S;
  for (const ExpectationResult &E : R.Expectations)
    Out << "E:" << E.Allowed << E.Outcome << E.Observed << E.Ok;
  return Out.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Batch determinism
//===----------------------------------------------------------------------===//

TEST(LitmusService, BatchResultsIdenticalAcrossWorkerCounts) {
  std::vector<LitmusJob> Jobs = differentialCorpusJobs();
  ASSERT_GE(Jobs.size(), 12u);

  std::vector<std::string> Reference;
  for (unsigned Workers : {1u, 2u, 4u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results = Service.run(Jobs);
    ASSERT_EQ(Results.size(), Jobs.size());
    std::vector<std::string> Prints;
    for (const LitmusJobResult &R : Results) {
      EXPECT_TRUE(R.ok()) << R.Name << ": " << R.Error;
      Prints.push_back(fingerprint(R));
    }
    if (Reference.empty())
      Reference = Prints;
    else
      EXPECT_EQ(Prints, Reference) << "workers=" << Workers;
  }
}

TEST(LitmusService, MixedStatusBatchIsDeterministicToo) {
  std::vector<LitmusJob> Jobs;
  Jobs.push_back({"good", GoodMp, "revised", 1});
  Jobs.push_back({"big", tooLargeLitmus(), "revised", 1});
  Jobs.push_back({"bad", "thread\n  flurb\n", "revised", 1});
  Jobs.push_back({"good-again", GoodMp, "revised", 1});

  std::vector<std::string> Reference;
  for (unsigned Workers : {1u, 2u, 4u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results = Service.run(Jobs);
    std::vector<std::string> Prints;
    for (const LitmusJobResult &R : Results)
      Prints.push_back(fingerprint(R));
    if (Reference.empty())
      Reference = Prints;
    else
      EXPECT_EQ(Prints, Reference) << "workers=" << Workers;
  }
}

//===----------------------------------------------------------------------===//
// Per-job error isolation
//===----------------------------------------------------------------------===//

TEST(LitmusService, OneBadJobNeverPoisonsTheBatch) {
  std::vector<LitmusJob> Jobs;
  Jobs.push_back({"big", tooLargeLitmus(), "revised", 1});
  Jobs.push_back({"malformed", "thread\n  store u32 0\n", "revised", 1});
  Jobs.push_back({"good", GoodMp, "revised", 1});
  Jobs.push_back({"unknown-model", GoodMp, "armv9", 1});
  Jobs.push_back({"not-uni", R"(name cf
buffer 8
thread
  r0 = load u32 0
  if r0 == 1
    store u32 4 = 1
  end
)",
                  "x86-tso", 1});

  ServiceConfig Cfg;
  Cfg.Workers = 2;
  LitmusService Service(Cfg);
  std::vector<LitmusJobResult> Results = Service.run(Jobs);
  ASSERT_EQ(Results.size(), 5u);

  EXPECT_EQ(Results[0].Status, JobStatus::TooLarge);
  EXPECT_NE(Results[0].Error.find("program too large (1201 events > 1024)"),
            std::string::npos)
      << Results[0].Error;

  EXPECT_EQ(Results[1].Status, JobStatus::ParseError);
  EXPECT_NE(Results[1].Error.find("line 2"), std::string::npos);

  // The good job is completely unaffected by its failed neighbours.
  EXPECT_EQ(Results[2].Status, JobStatus::Ok);
  EXPECT_TRUE(Results[2].expectationsOk());
  ASSERT_TRUE(Results[2].AllowedByBackend.count("revised"));
  EXPECT_FALSE(Results[2].allows("revised", "1:r0=1 1:r1=0"));
  EXPECT_TRUE(Results[2].allows("revised", "1:r0=1 1:r1=1"));

  EXPECT_EQ(Results[3].Status, JobStatus::Unsupported);
  EXPECT_NE(Results[3].Error.find("unknown model 'armv9'"),
            std::string::npos);

  EXPECT_EQ(Results[4].Status, JobStatus::Unsupported);
  EXPECT_NE(Results[4].Error.find("uni-size"), std::string::npos);
}

TEST(LitmusService, TooLargeIsAStructuredStatusNotACrash) {
  // This is the release-build UB the service hardening fixed: an
  // over-capacity universe used to sail past debug-only asserts into
  // out-of-range bit shifts. The cap is now the dynamic tier's.
  LitmusService Service;
  LitmusJobResult R = Service.runOne({"", tooLargeLitmus(), "revised", 1});
  EXPECT_EQ(R.Status, JobStatus::TooLarge);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("events > 1024"), std::string::npos) << R.Error;
}

TEST(LitmusService, FormerlyTooLargeProgramsNowServeRealVerdicts) {
  // The acceptance gate of the dynamic-universe PR: a 65+-event program
  // returns ok with a genuine outcome set — not the structured too-large
  // error PR 4 hardened it into.
  LitmusService Service;
  LitmusJobResult R =
      Service.runOne({"", formerlyTooLargeLitmus(), "revised", 1});
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  ASSERT_TRUE(R.AllowedByBackend.count("revised"));
  EXPECT_FALSE(R.AllowedByBackend.at("revised").empty());
  // The cross-thread read sees Init or the store: both values (the fillers
  // never touch its cell), nothing else.
  EXPECT_TRUE(R.allows("revised", "1:r0=0"));
  EXPECT_TRUE(R.allows("revised", "1:r0=1"));
  EXPECT_FALSE(R.allows("revised", "1:r0=2"));
  EXPECT_TRUE(R.expectationsOk());
}

TEST(LitmusService, TooLargeClassificationIsTypedNotTextual) {
  // Classification must key on the parser's typed TooLarge marker and the
  // engine's CapacityError type. A parse failure whose *content* mentions
  // capacity-sounding words stays parse-error.
  LitmusService Service;
  LitmusJobResult R = Service.runOne(
      {"program too large", "name big\nthread\n  program too large\n",
       "revised", 1});
  EXPECT_EQ(R.Status, JobStatus::ParseError);
  EXPECT_NE(R.Error.find("unknown statement"), std::string::npos) << R.Error;

  // And the genuine capacity rejection still classifies as too-large for
  // any job name.
  LitmusJobResult Big =
      Service.runOne({"innocent-name", tooLargeLitmus(), "revised", 1});
  EXPECT_EQ(Big.Status, JobStatus::TooLarge);
}

TEST(LitmusService, LargeCorpusIsDeterministicAcrossWorkerCounts) {
  // The 65+-event corpus (dynamic relation tier) under the same contract
  // as the classic corpus: every job ok, results byte-identical for every
  // worker count.
  std::vector<LitmusJob> Jobs = largeCorpusJobs();
  ASSERT_GE(Jobs.size(), 3u);

  std::vector<std::string> Reference;
  for (unsigned Workers : {1u, 2u, 4u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results = Service.run(Jobs);
    ASSERT_EQ(Results.size(), Jobs.size());
    std::vector<std::string> Prints;
    for (const LitmusJobResult &R : Results) {
      EXPECT_TRUE(R.ok()) << R.Name << ": " << R.Error;
      Prints.push_back(fingerprint(R));
    }
    if (Reference.empty())
      Reference = Prints;
    else
      EXPECT_EQ(Prints, Reference) << "workers=" << Workers;
  }
}

//===----------------------------------------------------------------------===//
// Verdict cache
//===----------------------------------------------------------------------===//

TEST(LitmusService, CacheHitsOnCanonicallyEqualPrograms) {
  LitmusService Service(ServiceConfig::sequential());
  LitmusJobResult First = Service.runOne({"a", GoodMp, "revised", 1});
  EXPECT_FALSE(First.FromCache);

  // Same program, different spelling: comments, blank lines and CRLF all
  // collapse under the canonical emitter.
  std::string Respelled;
  for (const char *C = GoodMp; *C; ++C) {
    if (*C == '\n')
      Respelled += "   # trailing comment\r\n";
    else
      Respelled += *C;
  }
  LitmusJobResult Second = Service.runOne({"b", Respelled, "revised", 1});
  EXPECT_TRUE(Second.FromCache);
  EXPECT_EQ(Second.Name, "b") << "the job's own label wins over the cache";
  EXPECT_EQ(Second.AllowedByBackend, First.AllowedByBackend);
  EXPECT_EQ(Second.Expectations.size(), First.Expectations.size());

  LitmusService::CacheStats Stats = Service.cacheStats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Misses, 1u);

  // A different model is a different key.
  LitmusJobResult Third = Service.runOne({"c", GoodMp, "original", 1});
  EXPECT_FALSE(Third.FromCache);
  EXPECT_EQ(Service.cacheStats().Misses, 2u);

  Service.clearCache();
  LitmusJobResult Fourth = Service.runOne({"d", GoodMp, "revised", 1});
  EXPECT_FALSE(Fourth.FromCache);
}

TEST(LitmusService, CachedResultNameIsAFunctionOfTheJobAlone) {
  // An unnamed job must report the parsed program's name even when the
  // verdict is served from a cache entry populated by a custom-named
  // submitter — otherwise the JSONL stream depends on which duplicate ran
  // first and worker-count determinism breaks.
  LitmusService Service(ServiceConfig::sequential());
  LitmusJobResult Named = Service.runOne({"custom", GoodMp, "revised", 1});
  EXPECT_EQ(Named.Name, "custom");
  LitmusJobResult Unnamed = Service.runOne({"", GoodMp, "revised", 1});
  EXPECT_TRUE(Unnamed.FromCache);
  EXPECT_EQ(Unnamed.Name, "mp") << "parsed program name, not the first "
                                   "submitter's label";
}

TEST(LitmusService, CacheCanBeDisabled) {
  ServiceConfig Cfg;
  Cfg.CacheVerdicts = false;
  LitmusService Service(Cfg);
  Service.runOne({"a", GoodMp, "revised", 1});
  LitmusJobResult Again = Service.runOne({"a", GoodMp, "revised", 1});
  EXPECT_FALSE(Again.FromCache);
  EXPECT_EQ(Service.cacheStats().Hits, 0u);
  EXPECT_EQ(Service.cacheStats().Misses, 0u);
}

TEST(LitmusService, CacheKeyCanonicalises) {
  LitmusJob A{"x", GoodMp, "revised", 1};
  LitmusJob B{"y", std::string(GoodMp) + "\n# comment\n", "revised", 4};
  std::optional<std::string> KeyA = LitmusService::cacheKey(A);
  std::optional<std::string> KeyB = LitmusService::cacheKey(B);
  ASSERT_TRUE(KeyA && KeyB);
  EXPECT_EQ(*KeyA, *KeyB) << "names, comments and thread budgets are not "
                             "part of the verdict";
  LitmusJob C{"x", GoodMp, "original", 1};
  EXPECT_NE(*KeyA, *LitmusService::cacheKey(C));
  EXPECT_FALSE(LitmusService::cacheKey({"z", "not litmus", "revised", 1})
                   .has_value());
}

//===----------------------------------------------------------------------===//
// Differential jobs agree with the exhaustive table
//===----------------------------------------------------------------------===//

namespace {

/// Runs every job of \p Jobs as the production service does (reduction,
/// static tier, DRF shortcut) and compares its table with the exhaustive
/// walk's: no reduction, no static tier, no shortcut.
void expectServiceMatchesExhaustive(const std::vector<LitmusJob> &Jobs) {
  LitmusService Service;
  for (const LitmusJob &J : Jobs) {
    LitmusJobResult R = Service.runOne(J);
    ASSERT_EQ(R.Status, JobStatus::Ok) << J.Name << ": " << R.Error;
    std::optional<LitmusFile> File = parseLitmus(J.Litmus);
    ASSERT_TRUE(File.has_value()) << J.Name;
    LitmusJobResult Ref =
        differentialTable(File->P, ExecutionEngine(EngineConfig{1, true}));
    EXPECT_EQ(R.AllowedByBackend, Ref.AllowedByBackend) << J.Name;
    EXPECT_EQ(R.SoundnessViolations, Ref.SoundnessViolations) << J.Name;
    EXPECT_EQ(R.ObservableWeakenings, Ref.ObservableWeakenings) << J.Name;
  }
}

} // namespace

TEST(LitmusService, DifferentialTableMatchesExhaustiveTable) {
  std::vector<LitmusJob> Jobs = differentialCorpusJobs();
  ASSERT_GE(Jobs.size(), 17u);
  expectServiceMatchesExhaustive(Jobs);
}

TEST(LitmusService, LargeDifferentialTableMatchesExhaustiveTable) {
  std::vector<LitmusJob> Jobs = largeCorpusJobs();
  ASSERT_GE(Jobs.size(), 3u);
  expectServiceMatchesExhaustive(Jobs);
}

namespace {

/// One thread of \p N stores to distinct cells (N + 1 events as written,
/// 2N in the uni-size fragment).
std::string distinctStores(unsigned N, const char *Store) {
  std::string Out = "name stores\nbuffer " + std::to_string(4 * N) +
                    "\nthread\n";
  for (unsigned I = 0; I < N; ++I)
    Out += std::string("  ") + Store + " u32 " + std::to_string(4 * I) +
           " = 1\n";
  return Out;
}

/// 600 events in the uni-size fragment, 1200 once armv7 and riscv fence
/// every store.
std::string scStores300() { return distinctStores(300, "store.sc"); }

} // namespace

TEST(LitmusService, DifferentialTableOmitsTargetsCompiledPastTheCap) {
  // A compiled target past DynRelation::MaxSize has no column, as armv8
  // has none past 64 events — with or without the static DRF shortcut.
  LitmusService Service;
  for (bool Static : {true, false}) {
    LitmusJob Job{"", scStores300(), "differential", 1};
    Job.Static = Static;
    LitmusJobResult R = Service.runOne(Job);
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.DrfFastPath, Static);
    for (const char *Omitted : {"armv8", "armv7", "riscv"})
      EXPECT_FALSE(R.AllowedByBackend.count(Omitted))
          << Omitted << " static=" << Static;
    for (const char *Kept : {"js-original", "js-revised", "uni-js",
                             "x86-tso", "armv8-uni", "power", "immlite"})
      EXPECT_TRUE(R.allows(Kept, "empty")) << Kept << " static=" << Static;
  }
}

TEST(LitmusService, DifferentialTableOmitsUniColumnsPastTheCap) {
  // 601 events as written, 1200 in the uni-size fragment: only the
  // JavaScript columns apply, under either static flag.
  LitmusService Service;
  for (bool Static : {true, false}) {
    LitmusJob Job{"", distinctStores(600, "store"), "differential", 1};
    Job.Static = Static;
    LitmusJobResult R = Service.runOne(Job);
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
    std::vector<std::string> Columns;
    for (const auto &[Backend, Allowed] : R.AllowedByBackend)
      Columns.push_back(Backend);
    EXPECT_EQ(Columns, (std::vector<std::string>{"js-original",
                                                 "js-revised"}))
        << "static=" << Static;
  }
}

TEST(LitmusService, SingleModelTargetCompiledPastTheCapIsTooLarge) {
  LitmusService Service;
  LitmusJobResult R = Service.runOne({"", scStores300(), "armv7", 1});
  EXPECT_EQ(R.Status, JobStatus::TooLarge);
  EXPECT_EQ(R.Error, "program too large (1200 events > 1024) "
                     "(after compilation for armv7)");
}

TEST(LitmusService, SingleModelJobMatchesDirectEnumeration) {
  LitmusService Service;
  LitmusJobResult R = Service.runOne({"mp", GoodMp, "x86-tso", 1});
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;

  std::optional<LitmusFile> File = parseLitmus(GoodMp);
  ASSERT_TRUE(File.has_value());
  std::optional<UniProgram> Uni = uniFromProgram(File->P);
  ASSERT_TRUE(Uni.has_value());
  const TargetModel *M = TargetModel::byName("x86-tso");
  ASSERT_NE(M, nullptr);
  ExecutionEngine Engine;
  TargetEnumerationResult TR = Engine.enumerate(compileUni(*Uni, M->arch()),
                                                *M);
  std::vector<std::string> Expect;
  for (const auto &[O, W] : TR.Allowed) {
    (void)W;
    Expect.push_back(O.toString());
  }
  EXPECT_EQ(R.AllowedByBackend.at("x86-tso"), Expect);
  ASSERT_EQ(R.Expectations.size(), 1u);
  EXPECT_TRUE(R.Expectations[0].Ok) << "x86-TSO forbids the MP weak outcome";
}

//===----------------------------------------------------------------------===//
// Relation / topologicalOrder failure paths (the layers the service
// hardening forced)
//===----------------------------------------------------------------------===//

TEST(ServiceHardening, RelationConstructionIsCheckedInReleaseBuilds) {
  // The capacity failure is the typed CapacityError (still a
  // std::length_error for legacy catch sites).
  EXPECT_THROW(Relation R(Relation::MaxSize + 1), CapacityError);
  EXPECT_THROW(Relation R(Relation::MaxSize + 1), std::length_error);
  try {
    Relation R(70);
    FAIL() << "construction must not succeed";
  } catch (const std::length_error &E) {
    EXPECT_NE(std::string(E.what()).find("70 elements > 64"),
              std::string::npos)
        << E.what();
  }
}

TEST(ServiceHardening, TopologicalOrderReportsCyclesAsNullopt) {
  Relation R(4);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 0);
  EXPECT_FALSE(R.topologicalOrder().has_value());
  R.clear(2, 0);
  std::optional<std::vector<unsigned>> Order = R.topologicalOrder();
  ASSERT_TRUE(Order.has_value());
  EXPECT_EQ(Order->size(), 4u);
}

TEST(ServiceHardening, EngineCapacityErrorsNameTheBound) {
  // 71 events: beyond the fixed tier, inside the dynamic one. The serving
  // cap (capacityError) passes; the witness-carrying entry points report
  // their fixed 64-event bound and throw the typed CapacityError, while
  // the outcome-level door serves the program.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  for (unsigned I = 0; I < 70; ++I)
    T0.store(Acc::u8(0), 1);
  EXPECT_FALSE(ExecutionEngine::capacityError(P).has_value());
  std::optional<std::string> Fixed = ExecutionEngine::fixedCapacityError(P);
  ASSERT_TRUE(Fixed.has_value());
  EXPECT_NE(Fixed->find("program too large (71 events > 64)"),
            std::string::npos)
      << *Fixed;
  EXPECT_THROW(ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised())),
               CapacityError);
  OutcomeSummary S =
      ExecutionEngine().enumerateOutcomes(P, JsModel(ModelSpec::revised()));
  EXPECT_EQ(S.Allowed.size(), 1u) << "writes only: exactly one outcome";

  // Beyond the dynamic cap, every door reports the 1024-event bound.
  Program Big(4);
  ThreadBuilder B0 = Big.thread();
  for (unsigned I = 0; I < 1200; ++I)
    B0.store(Acc::u8(0), 1);
  std::optional<std::string> Error = ExecutionEngine::capacityError(Big);
  ASSERT_TRUE(Error.has_value());
  EXPECT_NE(Error->find("program too large (1201 events > 1024)"),
            std::string::npos)
      << *Error;
  EXPECT_THROW(
      ExecutionEngine().enumerateOutcomes(Big, JsModel(ModelSpec::revised())),
      CapacityError);

  Program Small(4);
  ThreadBuilder S0 = Small.thread();
  S0.store(Acc::u8(0), 1);
  EXPECT_FALSE(ExecutionEngine::capacityError(Small).has_value());
  EXPECT_FALSE(ExecutionEngine::fixedCapacityError(Small).has_value());
}

TEST(ServiceHardening, ConditionalBodiesCountTowardTheBound) {
  // 1 init + 1 load + 1030 nested stores = 1032 events on the taken path:
  // conditional bodies count toward the (dynamic) bound.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  Reg R0 = T0.load(Acc::u8(0));
  T0.ifEq(R0, 1, [&](ThreadBuilder &B) {
    for (unsigned I = 0; I < 1030; ++I)
      B.store(Acc::u8(0), 1);
  });
  std::optional<std::string> Error = ExecutionEngine::capacityError(P);
  ASSERT_TRUE(Error.has_value());
  EXPECT_NE(Error->find("1032 events > 1024"), std::string::npos) << *Error;
}

//===----------------------------------------------------------------------===//
// Initial-value programs through the service (the PR 7 rejection fixes)
//===----------------------------------------------------------------------===//

TEST(LitmusService, ParserRejectionGapsSurfaceAsParseErrors) {
  // Duplicate thread ids and overlapping init ranges used to parse into
  // ill-formed programs and blow up (or silently mislabel outcomes) deep
  // inside the engine; the service must now report them as structured
  // parse errors with the offending line.
  LitmusService Service;

  LitmusJobResult Dup = Service.runOne(
      {"dup-thread",
       "buffer 8\nthread 0\n  store u8 0 = 1\nthread 0\n  r0 = load u8 0\n",
       "revised", 1});
  EXPECT_EQ(Dup.Status, JobStatus::ParseError);
  EXPECT_NE(Dup.Error.find("line 4"), std::string::npos) << Dup.Error;
  EXPECT_NE(Dup.Error.find("duplicate thread id '0'"), std::string::npos)
      << Dup.Error;

  LitmusJobResult Overlap = Service.runOne(
      {"init-overlap",
       "buffer 8\ninit u32 0 = 1\ninit u16 2 = 1\nthread\n  r0 = load u8 0\n",
       "revised", 1});
  EXPECT_EQ(Overlap.Status, JobStatus::ParseError);
  EXPECT_NE(Overlap.Error.find("line 3"), std::string::npos) << Overlap.Error;
  EXPECT_NE(Overlap.Error.find("overlaps an earlier init at byte 2"),
            std::string::npos)
      << Overlap.Error;
}

static const char *InitMp = R"(name init-mp
buffer 16
init u32 0 = 5
thread
  r0 = load u32 0
thread
  store u32 8 = 1
)";

TEST(LitmusService, InitValuesFlowThroughToVerdicts) {
  LitmusService Service;
  LitmusJobResult R = Service.runOne({"init-mp", InitMp, "revised", 1});
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_TRUE(R.allows("revised", "0:r0=5"));
  EXPECT_FALSE(R.allows("revised", "0:r0=0"));
}

TEST(LitmusService, ArmBackendRefusesNonZeroInitPrograms) {
  // compileToArm assumes zero-initialised buffers, so an armv8 job on an
  // init program must be a structured Unsupported, not a wrong verdict.
  LitmusService Service;
  LitmusJobResult R = Service.runOne({"init-arm", InitMp, "armv8", 1});
  EXPECT_EQ(R.Status, JobStatus::Unsupported);
  EXPECT_NE(R.Error.find("zero-initialised buffers"), std::string::npos)
      << R.Error;
}

TEST(LitmusService, DifferentialTableOmitsArmColumnForInitPrograms) {
  LitmusService Service;
  LitmusJobResult R = Service.runOne({"init-diff", InitMp, "differential", 1});
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  // The mixed-size JavaScript columns always serve; the armv8 column is
  // omitted (its lowering assumes zero init), and the uni-size target
  // columns are inexpressible for init programs (uniFromProgram rejects).
  EXPECT_TRUE(R.AllowedByBackend.count("js-original"));
  EXPECT_TRUE(R.AllowedByBackend.count("js-revised"));
  EXPECT_FALSE(R.AllowedByBackend.count("armv8"))
      << "armv8 column must be omitted when the program has init bytes";
  EXPECT_TRUE(R.allows("js-revised", "0:r0=5"));
}
