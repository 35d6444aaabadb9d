//===- service/LitmusService.cpp ------------------------------------------===//

#include "service/LitmusService.h"

#include "analysis/ScEnumeration.h"
#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "litmus/PathEnum.h"
#include "obs/Obs.h"
#include "support/CapacityError.h"
#include "support/Str.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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
  return It != AllowedByBackend.end() &&
         std::find(It->second.begin(), It->second.end(), O) !=
             It->second.end();
}

bool LitmusJobResult::expectationsOk() const {
  for (const ExpectationResult &E : Expectations)
    if (!E.Ok)
      return false;
  return true;
}

using Kind = BackendInfo::Kind;

const std::vector<BackendInfo> &jsmm::backends() {
  static const std::vector<BackendInfo> Table = [] {
    const char *Js = "JavaScript (mixed-size litmus program as written)";
    std::vector<BackendInfo> T = {
        {"original", Kind::Js, ModelSpec::original(), nullptr, Js,
         "JavaScript model as specified (pre-repair)"},
        {"armfix", Kind::Js, ModelSpec::armFixOnly(), nullptr, Js,
         "original + the ARMv8 compilation fix only"},
        {"revised", Kind::Js, ModelSpec::revised(), nullptr, Js,
         "the paper's repaired model (default)"},
        {"strong", Kind::Js, ModelSpec::revisedStrongTearFree(), nullptr, Js,
         "revised + strong tear-free reads"},
        {"armv8", Kind::Armv8, ModelSpec::revised(), nullptr,
         "compiled ARMv8 (mixed-size, \xC2\xA7" "4 model)",
         "the litmus program under the \xC2\xA7" "5.1 scheme"},
    };
    for (const TargetModel &M : TargetModel::all())
      T.push_back({M.name(), Kind::Target, ModelSpec::revised(), &M,
                   "compiled Thm 6.3 targets (uni-size fragment only)",
                   std::string(targetArchName(M.arch())) + " axiomatic model"});
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

/// One backend's column: sorted outcome strings, plus how the engine got
/// them (solver, OutcomeSummary::Tier and value-aware pruning; empty and 0
/// for the solver-free armv8 and uni-js columns). A status other than Ok
/// says why the backend does not apply: TooLarge for a compiled form past
/// its event cap, Unsupported for a program outside its fragment.
struct VerdictColumn {
  JobStatus Status = JobStatus::Ok;
  std::string Error;
  std::vector<std::string> Allowed;
  std::string Solver;
  std::string Tier;
  uint64_t StaticRfPruned = 0;
  uint64_t StaticPathsPruned = 0;
};

/// A program, its static analysis (null when the job's Static flag is off)
/// and its uni-size form, converted on first use and shared by the uni-js
/// and target columns of one table.
struct ColumnSource {
  const Program &P;
  const analysis::StaticValues *SV;
  std::optional<std::optional<UniProgram>> Uni;
  std::string Why;

  const UniProgram *uni() {
    if (!Uni)
      Uni = uniFromProgram(P, &Why);
    return *Uni ? &**Uni : nullptr;
  }
};

/// An engine enumeration as a column (each enumerateOutcomes call resets
/// E.Stats, so it holds this enumeration's pruning effort).
VerdictColumn engineColumn(const OutcomeSummary &S, const ExecutionEngine &E) {
  return {JobStatus::Ok,     "",
          S.outcomeStrings(), solverKindName(S.SolverUsed),
          S.Tier,             E.Stats.StaticRfPruned,
          E.Stats.StaticPathsPruned};
}

/// The target columns \p Bs of one program. Each applies when the program
/// is in the uni-size fragment and its compiled form is within
/// Relation::MaxSize events; given an engine, the applicable ones come
/// from one joint walk (ExecutionEngine::enumerateOutcomes over their
/// compiled forms), each reporting the walk's pruning as its own.
std::vector<VerdictColumn>
targetColumns(ColumnSource &S, const std::vector<const BackendInfo *> &Bs,
              const ExecutionEngine *E) {
  std::vector<VerdictColumn> Cols(Bs.size());
  const UniProgram *Uni = S.uni();
  std::vector<CompiledTarget> CTs;
  std::vector<size_t> Applies;
  for (size_t I = 0; I < Bs.size(); ++I) {
    if (!Uni) {
      Cols[I] = {JobStatus::Unsupported,
                 "not in the uni-size fragment required by target "
                 "backends: " +
                     S.Why};
      continue;
    }
    CompiledTarget CT = compileUni(*Uni, Bs[I]->Target->arch());
    if (std::optional<std::string> Cap = ExecutionEngine::capacityError(CT)) {
      Cols[I] = {JobStatus::TooLarge,
                 *Cap + " (after compilation for " + Bs[I]->Name + ")"};
      continue;
    }
    CTs.push_back(std::move(CT));
    Applies.push_back(I);
  }
  if (E && !CTs.empty()) {
    std::vector<OutcomeSummary> Sums = E->enumerateOutcomes(CTs, S.SV);
    for (size_t K = 0; K < Applies.size(); ++K)
      Cols[Applies[K]] = engineColumn(Sums[K], *E);
  }
  return Cols;
}

/// The one column path. Decides whether \p B applies to the program —
/// armv8 needs zero init and a compiled form within 64 events, uni-js and
/// the targets the uni-size fragment within Relation::MaxSize events, a
/// target also a compiled form within that cap — and, given an engine,
/// computes the column. With \p E null only applicability is decided (an
/// empty Ok column means it applies), as the DRF shortcut needs.
VerdictColumn column(ColumnSource &S, const BackendInfo &B,
                     const ExecutionEngine *E) {
  VerdictColumn C;
  if (B.K == Kind::Js) {
    if (E)
      C = engineColumn(E->enumerateOutcomes(S.P, JsModel(B.Js), S.SV), *E);
    return C;
  }
  if (B.K == Kind::Armv8) {
    // The ARM lowering assumes zero-initialised buffers.
    if (S.P.hasNonZeroInit())
      return {JobStatus::Unsupported,
              "the armv8 backend assumes zero-initialised buffers; litmus "
              "'init' directives are not supported there"};
    CompiledProgram CP = compileToArm(S.P);
    if (std::optional<std::string> Cap =
            ExecutionEngine::capacityError(CP.Arm))
      return {JobStatus::TooLarge, *Cap + " (after compilation for armv8)"};
    if (E)
      C.Allowed = E->enumerate(CP.Arm, Armv8Model()).outcomeStrings();
    return C;
  }
  if (B.K == Kind::Target)
    return targetColumns(S, {&B}, E)[0];
  const UniProgram *Uni = S.uni();
  if (!Uni)
    return {JobStatus::Unsupported,
            "not in the uni-size fragment required by target backends: " +
                S.Why};
  if (std::optional<std::string> Cap = ExecutionEngine::capacityError(*Uni))
    return {JobStatus::TooLarge, *Cap + " (in the uni-size fragment)"};
  if (E)
    for (const Outcome &O : uniAllowedOutcomes(*Uni))
      C.Allowed.push_back(O.toString());
  return C;
}

/// The differential table's columns, in report order.
const std::vector<BackendInfo> &tableColumns() {
  static const std::vector<BackendInfo> Columns = [] {
    std::vector<BackendInfo> C = {
        {"js-original", Kind::Js, ModelSpec::original()},
        {"js-revised", Kind::Js, ModelSpec::revised()},
        *backendByName("armv8"),
        {"uni-js", Kind::UniJs},
    };
    for (const BackendInfo &B : backends())
      if (B.K == Kind::Target)
        C.push_back(B);
    return C;
  }();
  return Columns;
}

/// The DRF shortcut's one SC table, traced like the engine's fast path.
std::vector<std::string> scTable(const Program &P) {
  uint64_t States = 0;
  std::vector<std::string> Allowed;
  for (const Outcome &O : analysis::enumerateScOutcomes(P, &States))
    Allowed.push_back(O.toString());
  if (obs::TraceSink *T = obs::trace()) {
    JsonValue F = JsonValue::object();
    F.set("entry", JsonValue("differential"));
    F.set("events", JsonValue(static_cast<double>(programEventUpperBound(P))));
    F.set("states", JsonValue(static_cast<double>(States)));
    F.set("outcomes", JsonValue(static_cast<double>(Allowed.size())));
    T->event("drf-fastpath", std::move(F));
  }
  if (obs::metricsEnabled())
    obs::registry().counter("engine.drf_fastpath").add(1);
  return Allowed;
}

/// Checks the file's expectations against \p R's column \p Model.
std::vector<ExpectationResult>
checkExpectations(const LitmusJobResult &R, const std::string &Model,
                  const std::vector<LitmusExpectation> &Expectations) {
  std::vector<ExpectationResult> Out;
  for (const LitmusExpectation &E : Expectations) {
    std::string O = E.O.toString();
    bool Observed = R.allows(Model, O);
    Out.push_back({E.Allowed, O, Observed, Observed == E.Allowed});
  }
  return Out;
}

} // namespace

LitmusJobResult jsmm::differentialTable(const Program &P,
                                        const ExecutionEngine &E,
                                        LitmusJobResult R,
                                        const analysis::StaticValues *SV) {
  ColumnSource S{P, SV};
  std::vector<std::string> Sc;
  if (R.StaticallyDrf)
    Sc = scTable(P);
  R.DrfFastPath = R.StaticallyDrf;
  const ExecutionEngine *Engine = R.StaticallyDrf ? nullptr : &E;
  // The target columns come from one walk, made at the first of them.
  std::vector<const BackendInfo *> Targets;
  for (const BackendInfo &B : tableColumns())
    if (B.K == Kind::Target)
      Targets.push_back(&B);
  std::vector<VerdictColumn> TargetCols;
  size_t NextTarget = 0;
  for (const BackendInfo &B : tableColumns()) {
    VerdictColumn C;
    if (B.K != Kind::Target) {
      C = column(S, B, Engine);
    } else {
      if (TargetCols.empty())
        TargetCols = targetColumns(S, Targets, Engine);
      C = std::move(TargetCols[NextTarget++]);
    }
    if (C.Status != JobStatus::Ok)
      continue;
    std::vector<std::string> &Col = R.AllowedByBackend[B.Name] =
        R.StaticallyDrf ? Sc : std::move(C.Allowed);
    R.StaticRfPruned += C.StaticRfPruned;
    R.StaticPathsPruned += C.StaticPathsPruned;
    if (B.K != Kind::Target)
      continue;
    // A target applies only where uni-js does, and both JavaScript columns
    // precede it.
    for (const std::string &O : Col) {
      if (!R.allows("uni-js", O))
        R.SoundnessViolations.push_back(B.Name + ": " + O);
      if (!R.allows("js-original", O))
        R.ObservableWeakenings.push_back(B.Name + ": " + O);
    }
  }
  return R;
}

unsigned LitmusService::effectiveWorkers() const {
  if (Cfg.Workers)
    return Cfg.Workers;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

unsigned LitmusService::workersFor(size_t Jobs) const {
  return static_cast<unsigned>(std::min<size_t>(effectiveWorkers(), Jobs));
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

  // Static pre-analysis, once per job: the Static* summary the JSONL
  // "static" object renders, the statically-DRF certificate the fast
  // paths below consult, and the may-rf facts every column's walk prunes
  // with. A pure function of the parsed program, so it stays
  // deterministic across worker counts.
  std::optional<analysis::StaticValues> SV;
  if (Job.Static) {
    analysis::StaticValues &V = SV.emplace(analysis::analyzeValues(File->P));
    R.HasStatic = true;
    R.StaticallyDrf = V.C.StaticallyDrf;
    R.StaticMayRaces = static_cast<unsigned>(V.C.MayRaces.size());
    R.StaticLints = static_cast<unsigned>(V.C.Lints.size());
    // The columns read only the certificate and the may-rf facts. The
    // race pairs, the lint text and the byte table would otherwise stay
    // resident through every enumeration of the job.
    V.C.MayRaces = {};
    V.C.Lints = {};
    V.Bytes = {};
  }
  const analysis::StaticValues *SVP = SV ? &*SV : nullptr;

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
  EngineConfig Cfg;
  Cfg.Threads = Job.Threads;
  Cfg.Reduction = Job.Reduce;
  Cfg.StaticFastPath = Job.Static;
  ExecutionEngine Engine(Cfg);
  try {
    // The parser already rejects source programs beyond the relation cap
    // (Relation::MaxSize); compiled forms can still exceed it (schemes
    // insert fences), which column() reports per backend.
    if (std::optional<std::string> Cap =
            ExecutionEngine::capacityError(File->P)) {
      R.Status = JobStatus::TooLarge;
      R.Error = *Cap;
      return R;
    }

    if (Differential)
      return differentialTable(File->P, Engine, R, SVP);

    ColumnSource S{File->P, SVP};
    VerdictColumn C = column(S, *B, &Engine);
    R.Status = C.Status;
    R.Error = C.Error;
    if (!R.ok())
      return R;
    R.AllowedByBackend[Job.Model] = std::move(C.Allowed);
    R.Expectations = checkExpectations(R, Job.Model, File->Expectations);
    R.SolverUsed = C.Solver;
    R.DrfFastPath = C.Tier == "static";
    R.StaticRfPruned = C.StaticRfPruned;
    R.StaticPathsPruned = C.StaticPathsPruned;
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
  unsigned Workers = workersFor(Jobs.size());
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
    try {
      for (unsigned W = 0; W < Workers; ++W)
        Pool.emplace_back(Worker);
    } catch (...) {
      // Join the started workers (they drain the queue) so unwinding does
      // not destroy a joinable std::thread, which would terminate.
      for (std::thread &T : Pool)
        T.join();
      throw;
    }
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
    std::string Litmus =
        C.Litmus.empty() ? emitLitmus(LitmusFile{C.program()}) : C.Litmus;
    Jobs.push_back({C.Name, std::move(Litmus), Model, Threads});
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
