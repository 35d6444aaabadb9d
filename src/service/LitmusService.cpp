//===- service/LitmusService.cpp ------------------------------------------===//

#include "service/LitmusService.h"

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "litmus/PathEnum.h"
#include "obs/Obs.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/Str.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

using namespace jsmm;

const char *jsmm::jobStatusName(JobStatus S) {
  switch (S) {
  case JobStatus::Ok:
    return "ok";
  case JobStatus::TooLarge:
    return "too-large";
  case JobStatus::ParseError:
    return "parse-error";
  case JobStatus::Unsupported:
    return "unsupported";
  }
  return "unknown";
}

bool LitmusJobResult::allows(const std::string &Backend,
                             const std::string &O) const {
  auto It = AllowedByBackend.find(Backend);
  if (It == AllowedByBackend.end())
    return false;
  for (const std::string &S : It->second)
    if (S == O)
      return true;
  return false;
}

bool LitmusJobResult::expectationsOk() const {
  for (const ExpectationResult &E : Expectations)
    if (!E.Ok)
      return false;
  return true;
}

const std::vector<BackendInfo> &jsmm::backends() {
  static const std::vector<BackendInfo> Table = [] {
    const char *Js = "JavaScript (mixed-size litmus program as written)";
    std::vector<BackendInfo> T = {
        {"original", Js, "JavaScript model as specified (pre-repair)",
         ModelSpec::original()},
        {"armfix", Js, "original + the ARMv8 compilation fix only",
         ModelSpec::armFixOnly()},
        {"revised", Js, "the paper's repaired model (default)",
         ModelSpec::revised()},
        {"strong", Js, "revised + strong tear-free reads",
         ModelSpec::revisedStrongTearFree()},
        {"armv8", "compiled ARMv8 (mixed-size, \xC2\xA7" "4 model)",
         "the litmus program under the \xC2\xA7" "5.1 scheme", std::nullopt},
    };
    for (const TargetModel &M : TargetModel::all())
      T.push_back({M.name(),
                   "compiled Thm 6.3 targets (uni-size fragment only)",
                   std::string(targetArchName(M.arch())) + " axiomatic model",
                   std::nullopt, &M});
    return T;
  }();
  return Table;
}

const BackendInfo *jsmm::backendByName(const std::string &Name) {
  for (const BackendInfo &B : backends())
    if (B.Name == Name)
      return &B;
  return nullptr;
}

namespace {

/// Adds the value-aware pruning effort of \p E's last enumeration to the
/// job's Static* counters (each enumerateOutcomes call resets E.Stats).
void foldStaticStats(const ExecutionEngine &E, LitmusJobResult &R) {
  R.StaticRfPruned += E.Stats.StaticRfPruned;
  R.StaticPathsPruned += E.Stats.StaticPathsPruned;
}

/// Sorted allowed-outcome strings of any enumeration result (its Allowed
/// member is a std::map keyed by Outcome, so iteration order is already
/// the sorted order).
template <typename ResultT>
std::vector<std::string> allowedStrings(const ResultT &R) {
  std::vector<std::string> Out;
  for (const auto &[O, W] : R.Allowed) {
    (void)W;
    Out.push_back(O.toString());
  }
  return Out;
}

/// Checks the file's expectations against one enumeration result.
template <typename ResultT>
std::vector<ExpectationResult>
checkExpectations(const ResultT &R,
                  const std::vector<LitmusExpectation> &Expectations) {
  std::vector<ExpectationResult> Out;
  for (const LitmusExpectation &E : Expectations) {
    ExpectationResult C;
    C.Allowed = E.Allowed;
    C.Outcome = E.O.toString();
    C.Observed = R.allows(E.O);
    C.Ok = C.Observed == E.Allowed;
    Out.push_back(std::move(C));
  }
  return Out;
}

/// The cross-model verdict table of one parsed program: the JavaScript
/// columns on the program as written, the mixed-size ARMv8 column when the
/// compiled form fits the fixed 64-event tier (the §4 model has no dynamic
/// backend yet — large programs simply omit that column), plus — when the
/// program is expressible in the uni-size fragment — the uni-js reference
/// column and the six Thm 6.3 targets, with the soundness /
/// observable-weakening diffs of targets/Differential.h. The JavaScript
/// and target columns go through the size-agnostic enumerateOutcomes entry
/// points, so programs beyond 64 events get real verdicts.
///
/// When the statically-DRF certificate holds (\p StaticallyDrf — the
/// caller's analysis::classify verdict, false whenever the job's Static
/// flag is off), the whole table collapses to one SC interleaving
/// enumeration: by the SC-DRF theorem every JavaScript variant admits
/// exactly the SC outcomes on a race-free program, and the Thm 6.3
/// compilation schemes preserve them, so the single table is replicated
/// across exactly the columns the full path would emit. The soundness /
/// weakening diffs are empty by construction. The static-vs-dynamic
/// differential tests pin byte-identical tables for both paths.
void runDifferentialTable(const LitmusFile &File, const ExecutionEngine &E,
                          bool StaticallyDrf, LitmusJobResult &R) {
  if (StaticallyDrf) {
    uint64_t States = 0;
    std::vector<std::string> Allowed;
    for (const Outcome &O : analysis::enumerateScOutcomes(File.P, &States))
      Allowed.push_back(O.toString());
    R.AllowedByBackend["js-original"] = Allowed;
    R.AllowedByBackend["js-revised"] = Allowed;
    // Same column conditions as the full path below: the armv8 column
    // needs a zero-initialised buffer and a compiled form inside the
    // fixed tier; the uni-js and target columns need the uni-size
    // fragment.
    if (!File.P.hasNonZeroInit() &&
        !ExecutionEngine::capacityError(compileToArm(File.P).Arm))
      R.AllowedByBackend["armv8"] = Allowed;
    if (uniFromProgram(File.P)) {
      R.AllowedByBackend["uni-js"] = Allowed;
      for (const TargetModel &M : TargetModel::all())
        R.AllowedByBackend[M.name()] = Allowed;
    }
    R.DrfFastPath = true;
    if (obs::TraceSink *T = obs::trace()) {
      JsonValue F = JsonValue::object();
      F.set("entry", JsonValue("differential"));
      F.set("events",
            JsonValue(static_cast<double>(programEventUpperBound(File.P))));
      F.set("states", JsonValue(static_cast<double>(States)));
      F.set("outcomes", JsonValue(static_cast<double>(Allowed.size())));
      T->event("drf-fastpath", std::move(F));
    }
    if (obs::metricsEnabled())
      obs::registry().counter("engine.drf_fastpath").add(1);
    return;
  }

  R.AllowedByBackend["js-original"] =
      E.enumerateOutcomes(File.P, JsModel(ModelSpec::original()))
          .outcomeStrings();
  foldStaticStats(E, R);
  R.AllowedByBackend["js-revised"] =
      E.enumerateOutcomes(File.P, JsModel(ModelSpec::revised()))
          .outcomeStrings();
  foldStaticStats(E, R);
  // The ARM lowering assumes zero-initialised buffers: programs with a
  // litmus `init` directive omit the armv8 column (like too-large ones).
  if (!File.P.hasNonZeroInit()) {
    CompiledProgram CP = compileToArm(File.P);
    if (!ExecutionEngine::capacityError(CP.Arm))
      R.AllowedByBackend["armv8"] =
          allowedStrings(E.enumerate(CP.Arm, Armv8Model()));
  }

  std::string Why;
  std::optional<UniProgram> Uni = uniFromProgram(File.P, &Why);
  if (!Uni)
    return; // mixed-size columns only; target columns are inexpressible

  std::vector<std::string> UniAllowed;
  for (const Outcome &O : uniAllowedOutcomes(*Uni))
    UniAllowed.push_back(O.toString());
  std::set<std::string> UniSet(UniAllowed.begin(), UniAllowed.end());
  const std::vector<std::string> &Orig = R.AllowedByBackend["js-original"];
  std::set<std::string> OrigSet(Orig.begin(), Orig.end());
  R.AllowedByBackend["uni-js"] = std::move(UniAllowed);

  for (const TargetModel &M : TargetModel::all()) {
    CompiledTarget CT = compileUni(*Uni, M.arch());
    std::vector<std::string> Allowed =
        E.enumerateOutcomes(CT, M).outcomeStrings();
    foldStaticStats(E, R);
    for (const std::string &O : Allowed) {
      if (!UniSet.count(O))
        R.SoundnessViolations.push_back(std::string(M.name()) + ": " + O);
      if (!OrigSet.count(O))
        R.ObservableWeakenings.push_back(std::string(M.name()) + ": " + O);
    }
    R.AllowedByBackend[M.name()] = std::move(Allowed);
  }
}

} // namespace

unsigned LitmusService::effectiveWorkers() const {
  if (Cfg.Workers)
    return Cfg.Workers;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

namespace {

/// The cache key of a parsed job. emitLitmus is the canonical form: two
/// sources that parse to the same program and expectations share a key no
/// matter how they are spelled. The solver is part of the key because it
/// is process-global state the verdict was computed under (identical
/// verdicts are pinned by solver_test, but the cache must not assume
/// that).
std::string keyOf(const LitmusFile &File, const std::string &Model,
                  bool Reduce, bool Static) {
  return emitLitmus(File) + "\x1f" + "model=" + Model + "\x1f" +
         "solver=" + solverKindName(defaultSolverKind()) + "\x1f" +
         "reduce=" + (Reduce ? "on" : "off") + "\x1f" +
         "static=" + (Static ? "on" : "off");
}

} // namespace

std::optional<std::string> LitmusService::cacheKey(const LitmusJob &Job) {
  std::optional<LitmusFile> File = parseLitmus(Job.Litmus);
  if (!File)
    return std::nullopt;
  return keyOf(*File, Job.Model, Job.Reduce, Job.Static);
}

LitmusJobResult
LitmusService::computeResult(const LitmusJob &Job,
                             const std::optional<LitmusFile> &File,
                             const LitmusParseDiag &ParseDiag) const {
  LitmusJobResult R;
  R.Name = Job.Name;
  R.Model = Job.Model;

  if (!File) {
    // The parser is the capacity boundary for source programs; its typed
    // TooLarge flag — never message-text matching, which a crafted
    // diagnostic could spoof — selects the dedicated status.
    R.Status = ParseDiag.TooLarge ? JobStatus::TooLarge
                                  : JobStatus::ParseError;
    R.Error = ParseDiag.Message;
    return R;
  }
  if (R.Name.empty())
    R.Name = File->P.Name;

  // Static pre-analysis: the Static* summary the JSONL "static" object
  // renders, and the statically-DRF certificate the fast paths below
  // consult. A pure function of the parsed program, so it stays
  // deterministic across worker counts.
  if (Job.Static) {
    analysis::StaticClassification C = analysis::classify(File->P);
    R.HasStatic = true;
    R.StaticallyDrf = C.StaticallyDrf;
    R.StaticMayRaces = static_cast<unsigned>(C.MayRaces.size());
    R.StaticLints = static_cast<unsigned>(C.Lints.size());
  }

  const BackendInfo *B = backendByName(Job.Model);
  bool Differential = Job.Model == "differential";
  if (!B && !Differential) {
    std::string Known;
    for (const BackendInfo &K : backends())
      Known += K.Name + ", ";
    R.Status = JobStatus::Unsupported;
    R.Error = "unknown model '" + Job.Model + "' (known: " + Known +
              "differential)";
    return R;
  }

  // A job the engine throws on keeps only its name, model and error.
  auto Failed = [&R, &Job](JobStatus Status, std::string Error) {
    LitmusJobResult F;
    F.Name = R.Name;
    F.Model = Job.Model;
    F.Status = Status;
    F.Error = std::move(Error);
    return F;
  };
  ExecutionEngine Engine(EngineConfig{Job.Threads, true,
                                      /*ForceDynRelation=*/false,
                                      /*Reduction=*/Job.Reduce,
                                      /*StaticFastPath=*/Job.Static});
  try {
    // The parser already rejects source programs beyond the dynamic cap
    // (DynRelation::MaxSize); compiled forms can still exceed it (schemes
    // insert fences), so the engine checks are re-surfaced per compiled
    // program below.
    if (std::optional<std::string> Cap =
            ExecutionEngine::capacityError(File->P)) {
      R.Status = JobStatus::TooLarge;
      R.Error = *Cap;
      return R;
    }

    if (Differential) {
      runDifferentialTable(*File, Engine, R.StaticallyDrf, R);
      return R;
    }

    if (const TargetModel *Target = B->Target) {
      std::string Why;
      std::optional<UniProgram> Uni = uniFromProgram(File->P, &Why);
      if (!Uni) {
        R.Status = JobStatus::Unsupported;
        R.Error = "not in the uni-size fragment required by target "
                  "backends: " +
                  Why;
        return R;
      }
      CompiledTarget CT = compileUni(*Uni, Target->arch());
      if (std::optional<std::string> Cap =
              ExecutionEngine::capacityError(CT)) {
        R.Status = JobStatus::TooLarge;
        R.Error = *Cap + " (after compilation for " + Job.Model + ")";
        return R;
      }
      OutcomeSummary TR = Engine.enumerateOutcomes(CT, *Target);
      foldStaticStats(Engine, R);
      R.AllowedByBackend[Job.Model] = TR.outcomeStrings();
      R.Expectations = checkExpectations(TR, File->Expectations);
      R.SolverUsed = solverKindName(TR.SolverUsed);
      R.DrfFastPath = TR.Tier == "static";
      return R;
    }

    if (!B->Js) {
      if (File->P.hasNonZeroInit()) {
        R.Status = JobStatus::Unsupported;
        R.Error = "the armv8 backend assumes zero-initialised buffers; "
                  "litmus 'init' directives are not supported there";
        return R;
      }
      CompiledProgram CP = compileToArm(File->P);
      if (std::optional<std::string> Cap =
              ExecutionEngine::capacityError(CP.Arm)) {
        R.Status = JobStatus::TooLarge;
        R.Error = *Cap + " (after compilation for armv8)";
        return R;
      }
      ArmEnumerationResult AR = Engine.enumerate(CP.Arm, Armv8Model());
      R.AllowedByBackend[Job.Model] = allowedStrings(AR);
      R.Expectations = checkExpectations(AR, File->Expectations);
      return R;
    }

    OutcomeSummary ER = Engine.enumerateOutcomes(File->P, JsModel(*B->Js));
    foldStaticStats(Engine, R);
    R.AllowedByBackend[Job.Model] = ER.outcomeStrings();
    R.Expectations = checkExpectations(ER, File->Expectations);
    R.SolverUsed = solverKindName(ER.SolverUsed);
    R.DrfFastPath = ER.Tier == "static";
    return R;
  } catch (const CapacityError &E) {
    // Backstop for any capacity path the up-front checks missed (e.g. a
    // compiled form growing beyond the source bound): the job fails, the
    // batch does not. Classification is on the exception *type*: an
    // unrelated std::length_error (below) is an internal error, not a
    // too-large program.
    return Failed(JobStatus::TooLarge, E.what());
  } catch (const std::exception &E) {
    return Failed(JobStatus::Unsupported,
                  std::string("internal error: ") + E.what());
  }
}

LitmusJobResult LitmusService::lookupOrCompute(const LitmusJob &Job,
                                               bool &CacheHit) {
  // Parse once: the canonical cache key, the name fallback and the
  // verdict computation all share this parse.
  LitmusParseDiag ParseDiag;
  std::optional<LitmusFile> File = parseLitmus(Job.Litmus, ParseDiag);

  // The result's name is a deterministic function of the job alone (its
  // label, else the parsed program's name) — never of which duplicate
  // populated the cache first, so the JSONL stream stays byte-identical
  // across worker counts.
  std::string Name = Job.Name;
  if (Name.empty() && File)
    Name = File->P.Name;

  std::optional<std::string> Key;
  if (Cfg.CacheVerdicts && File)
    Key = keyOf(*File, Job.Model, Job.Reduce, Job.Static);
  if (Key) {
    std::lock_guard<std::mutex> Lock(CacheMu);
    auto It = Cache.find(*Key);
    if (It != Cache.end()) {
      ++Stats.Hits;
      LitmusJobResult R = It->second;
      R.Name = Name;
      R.FromCache = true;
      CacheHit = true;
      return R;
    }
  }
  LitmusJobResult R;
  if (obs::metricsEnabled()) {
    // Attribute the solver work of this computation to this job. The
    // snapshot is stored before the result is cached, so a cache hit
    // replays the original computation's counters — keeping the per-job
    // JSONL record deterministic across worker counts and schedules.
    SolverActivitySink JobSink;
    SolverActivitySink *Prev = setCurrentSolverActivitySink(&JobSink);
    R = computeResult(Job, File, ParseDiag);
    setCurrentSolverActivitySink(Prev);
    R.Solver = JobSink.snapshot();
    R.HasSolverStats = true;
  } else {
    R = computeResult(Job, File, ParseDiag);
  }
  if (Key) {
    std::lock_guard<std::mutex> Lock(CacheMu);
    ++Stats.Misses;
    Cache.emplace(*Key, R);
  }
  return R;
}

namespace {

uint64_t microsSince(std::chrono::steady_clock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Since)
          .count());
}

} // namespace

LitmusJobResult LitmusService::runOne(const LitmusJob &Job) {
  bool Metrics = obs::metricsEnabled();
  obs::TraceSink *T = obs::trace();
  std::chrono::steady_clock::time_point Start;
  if (Metrics)
    Start = std::chrono::steady_clock::now();
  bool Hit = false;
  LitmusJobResult R = lookupOrCompute(Job, Hit);
  if (T) {
    JsonValue F = JsonValue::object();
    F.set("name", JsonValue(R.Name));
    T->event(Hit ? "cache-hit" : "cache-miss", std::move(F));
  }
  if (Metrics) {
    obs::MetricsRegistry &Reg = obs::registry();
    // Hit/miss counts depend on scheduling under concurrent workers
    // (duplicate jobs race to populate), so they are Runtime class.
    Reg.counter(Hit ? "service.cache.hits" : "service.cache.misses",
                obs::MetricClass::Runtime)
        .add(1);
    Reg.histogram("service.job_wall_us").recordMicros(microsSince(Start));
  }
  return R;
}

std::vector<LitmusJobResult>
LitmusService::run(const std::vector<LitmusJob> &Jobs) {
  std::vector<LitmusJobResult> Results(Jobs.size());
  unsigned Workers = static_cast<unsigned>(
      std::min<size_t>(effectiveWorkers(), Jobs.size()));
  bool Metrics = obs::metricsEnabled();
  obs::TraceSink *Trace = obs::trace();
  std::chrono::steady_clock::time_point RunStart;
  if (Metrics || Trace)
    RunStart = std::chrono::steady_clock::now();
  std::atomic<uint64_t> BusyUs{0};
  // One job through runOne, bracketed by the telemetry: queue wait (claim
  // time minus run start), job-start/job-end trace events, and per-job
  // wall time accumulated into the busy total for the utilization gauge.
  auto RunJob = [&](size_t I) {
    if (!Metrics && !Trace) {
      Results[I] = runOne(Jobs[I]);
      return;
    }
    std::chrono::steady_clock::time_point JobStart =
        std::chrono::steady_clock::now();
    if (Metrics)
      obs::registry()
          .histogram("service.queue_wait_us")
          .recordMicros(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  JobStart - RunStart)
                  .count()));
    if (Trace) {
      JsonValue F = JsonValue::object();
      F.set("job", JsonValue(static_cast<double>(I)));
      F.set("name", JsonValue(Jobs[I].Name));
      F.set("model", JsonValue(Jobs[I].Model));
      Trace->event("job-start", std::move(F));
    }
    Results[I] = runOne(Jobs[I]);
    uint64_t WallUs = microsSince(JobStart);
    BusyUs.fetch_add(WallUs, std::memory_order_relaxed);
    if (Trace) {
      JsonValue F = JsonValue::object();
      F.set("job", JsonValue(static_cast<double>(I)));
      F.set("name", JsonValue(Results[I].Name));
      F.set("status", JsonValue(jobStatusName(Results[I].Status)));
      F.set("cached", JsonValue(Results[I].FromCache));
      F.set("wall_us", JsonValue(static_cast<double>(WallUs)));
      Trace->event("job-end", std::move(F));
    }
  };
  if (Workers <= 1) {
    for (size_t I = 0; I < Jobs.size(); ++I)
      RunJob(I);
  } else {
    // Bounded pool: jobs are claimed from an atomic counter and each
    // worker writes only its claimed submission slots, so the result
    // vector is deterministic in submission order for every worker count.
    std::atomic<size_t> Next{0};
    auto Worker = [&] {
      for (size_t I = Next.fetch_add(1); I < Jobs.size();
           I = Next.fetch_add(1))
        RunJob(I);
    };
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (unsigned W = 0; W < Workers; ++W)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }
  if (Metrics) {
    obs::MetricsRegistry &Reg = obs::registry();
    Reg.counter("service.jobs").add(Jobs.size());
    uint64_t ElapsedUs = microsSince(RunStart);
    if (ElapsedUs && Workers)
      Reg.gauge("service.worker_utilization")
          .set(static_cast<double>(
                   BusyUs.load(std::memory_order_relaxed)) /
               (static_cast<double>(ElapsedUs) * std::max(1u, Workers)));
  }
  return Results;
}

LitmusService::CacheStats LitmusService::cacheStats() const {
  std::lock_guard<std::mutex> Lock(CacheMu);
  return Stats;
}

void LitmusService::clearCache() {
  std::lock_guard<std::mutex> Lock(CacheMu);
  Cache.clear();
}

namespace {

std::vector<LitmusJob> jobsOfCorpus(const std::vector<DiffCase> &Corpus,
                                    const std::string &Model,
                                    unsigned Threads) {
  std::vector<LitmusJob> Jobs;
  for (const DiffCase &C : Corpus) {
    LitmusJob J;
    J.Name = C.Name;
    J.Model = Model;
    J.Threads = Threads;
    if (!C.Litmus.empty()) {
      J.Litmus = C.Litmus;
    } else {
      LitmusFile F;
      F.P = mixedFromUni(C.Uni);
      J.Litmus = emitLitmus(F);
    }
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

} // namespace

std::vector<LitmusJob> jsmm::differentialCorpusJobs(const std::string &Model,
                                                    unsigned Threads) {
  return jobsOfCorpus(differentialCorpus(), Model, Threads);
}

std::vector<LitmusJob> jsmm::largeCorpusJobs(const std::string &Model,
                                             unsigned Threads) {
  return jobsOfCorpus(largeDifferentialCorpus(), Model, Threads);
}
