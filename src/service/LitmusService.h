//===- service/LitmusService.h - Batch litmus exploration service ---------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch litmus service: the engine's deterministic sharded
/// enumeration, put behind a request queue for herd7/diy-scale litmus
/// campaigns (the ROADMAP's many-scenario exploration direction). A batch
/// of jobs — litmus source text plus a backend, solver and thread budget —
/// runs on a bounded worker pool; verdicts are cached keyed by the
/// canonicalised program plus configuration, and results come back in
/// deterministic submission order regardless of worker count or
/// scheduling.
///
/// Every job result carries a structured status:
///
///   - ok          the job ran and produced verdicts;
///   - too-large   the program's event universe exceeds the relation cap
///                 (Relation::MaxSize events);
///   - parse-error the litmus text did not parse ("line N: ..." message);
///   - unsupported the backend is unknown, or requires the uni-size
///                 fragment the program is not in.
///
/// too-large is classified on typed markers (the parser's LitmusParseDiag
/// flag, the engine's CapacityError exception), never by matching message
/// substrings — a diagnostic that merely *contains* "program too large"
/// stays a parse-error.
///
/// A failed job never poisons the batch: the other jobs run to completion
/// and the failed one reports its status and message in its submission
/// slot. This is the property that forces the failure-path hardening
/// through every layer below (checked Relation construction, engine
/// capacity checks, parser numeric hardening).
///
/// Front doors: the `jsmm-batch` tool (JSONL job files / litmus
/// directories in, a JSONL verdict stream out), the `jsmm-run` tool (one
/// job, printed for a human), and the C++ API used by
/// examples/litmus_explorer. The service is the only code that maps a
/// model name to an engine call.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SERVICE_LITMUSSERVICE_H
#define JSMM_SERVICE_LITMUSSERVICE_H

#include "core/Validity.h"
#include "engine/ExecutionEngine.h"
#include "solver/TotSolver.h"
#include "tools/LitmusParser.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace jsmm {

/// A backend a verdict column runs under: a JavaScript variant, the
/// compiled mixed-size ARMv8 model, the uni-size JavaScript model (the
/// differential table's "uni-js", not a job backend), or a Thm 6.3 target.
struct BackendInfo {
  enum class Kind : uint8_t { Js, Armv8, UniJs, Target };
  std::string Name;
  Kind K = Kind::Js;
  ModelSpec Js = ModelSpec::revised(); ///< Kind::Js only
  const TargetModel *Target = nullptr; ///< Kind::Target only
  std::string Group; ///< the --list-models heading it is listed under
  std::string Desc;  ///< its one-line --list-models description
};

/// Every single-model backend, in --list-models order: the JavaScript
/// variants, "armv8", then the six targets. The one table that maps a
/// model name to an engine configuration; "differential" (the cross-model
/// table) is not in it.
const std::vector<BackendInfo> &backends();
/// \returns the backend named \p Name, or nullptr.
const BackendInfo *backendByName(const std::string &Name);

/// Structured per-job status. One bad program fails its job, never the
/// batch.
enum class JobStatus : uint8_t { Ok, TooLarge, ParseError, Unsupported };

/// \returns "ok" / "too-large" / "parse-error" / "unsupported".
const char *jobStatusName(JobStatus S);

/// One unit of service work: a litmus program and how to run it.
struct LitmusJob {
  /// Job label reported back in the result; when empty, the parsed
  /// program's `name` is used.
  std::string Name;
  /// Litmus source text (tools/LitmusParser format).
  std::string Litmus;
  /// Backend: the name of any backends() entry ("original", "armfix",
  /// "revised", "strong", "armv8", "x86-tso", "armv8-uni", "armv7",
  /// "power", "riscv", "immlite"), or "differential" for the cross-model
  /// verdict table.
  std::string Model = "revised";
  /// Engine threads for this job's enumerations (sharding within the job;
  /// the pool's workers parallelise across jobs). 0 means one per
  /// hardware thread.
  unsigned Threads = 1;
  /// Equivalence-aware enumeration (EngineConfig::Reduction: the rf
  /// sleep-set keys) for this job's JavaScript verdicts; the target and
  /// armv8 columns never reduce. Defaults on: the verdict tables are
  /// identical either way (reduction_test pins this); off restores the
  /// exhaustive walk. Part of the cache key.
  bool Reduce = true;
  /// Static pre-analysis (analysis::analyzeValues, once per job) for this
  /// job: fills the result's Static* summary and answers a statically-DRF
  /// program from its SC table, one SC enumeration per job serving every
  /// applicable column of a single-model job or a differential table
  /// alike (the DRF-SC shortcut); on every other program the JavaScript
  /// and target walks prune with the same analysis
  /// (EngineConfig::StaticFastPath). Verdicts are identical either way
  /// (the static-vs-dynamic differential tests pin this); off restores
  /// the full walk (the --no-static escape hatch). Part of the cache key.
  bool Static = true;
};

/// One checked `allow`/`forbid` line of a job's litmus file.
struct ExpectationResult {
  bool Allowed = false;  ///< the expectation as written
  std::string Outcome;   ///< the outcome's string form
  bool Observed = false; ///< what the model said
  bool Ok = false;       ///< Observed == Allowed
};

/// The result of one job, in its submission slot.
struct LitmusJobResult {
  JobStatus Status = JobStatus::Ok;
  std::string Error; ///< human-readable reason when Status != Ok
  std::string Name;
  std::string Model;

  /// Sorted allowed-outcome strings per backend. Single-model jobs have
  /// exactly one entry (the job's model); "differential" jobs carry the
  /// differentialTable() columns.
  std::map<std::string, std::vector<std::string>> AllowedByBackend;
  /// Differential jobs: Thm 6.3 soundness violations ("arch: outcome"
  /// strings for target outcomes uni-js forbids) and §3.1-style observable
  /// weakenings (target outcomes js-original forbids).
  std::vector<std::string> SoundnessViolations;
  std::vector<std::string> ObservableWeakenings;
  /// The file's allow/forbid lines checked against the job's model
  /// (single-model jobs only; differential jobs leave it empty).
  std::vector<ExpectationResult> Expectations;
  /// JavaScript and target jobs: the tot solver their enumeration
  /// dispatched to (a brute request past 256 events is answered by
  /// propagation). Empty for the solver-free
  /// armv8 backend and for differential jobs.
  std::string SolverUsed;

  /// True when this result came from the verdict cache. Depends on
  /// scheduling under concurrent workers, so it is excluded from the
  /// deterministic JSONL rendering; tests use it through the C++ API.
  bool FromCache = false;

  /// Solver-layer activity attributed to this job's computation (filled
  /// when observability metrics are enabled; see HasSolverStats). A
  /// deterministic function of the job — cached results replay the
  /// counters of the computation that populated the cache, so per-job
  /// JSONL records stay byte-identical across worker counts.
  SolverActivity Solver;
  bool HasSolverStats = false;

  /// Static pre-analysis summary (filled for parsed jobs when the job's
  /// Static flag is on). A deterministic function of the job, so the
  /// "static" object it renders into the per-job JSONL stays
  /// byte-identical across worker counts.
  bool HasStatic = false;
  bool StaticallyDrf = false;     ///< the statically-DRF certificate held
  unsigned StaticMayRaces = 0;    ///< may-race pairs in the program
  unsigned StaticLints = 0;       ///< lint diagnostics (jsmm-lint's vocabulary)
  /// Verdicts served by the SC table: the certificate held and, for a
  /// single-model job, its backend applies.
  bool DrfFastPath = false;
  /// Value-aware pruning effort summed over the job's JavaScript and
  /// target enumerations (EngineStats::StaticRfPruned /
  /// StaticPathsPruned): writer choices outside a read's static may-rf set
  /// and path combinations with contradicted branch constraints. 0 when
  /// the SC table served the job, or when Static is off. Deterministic
  /// across worker counts.
  uint64_t StaticRfPruned = 0;
  uint64_t StaticPathsPruned = 0;

  bool ok() const { return Status == JobStatus::Ok; }
  /// \returns true if \p Backend allows the outcome string \p O.
  bool allows(const std::string &Backend, const std::string &O) const;
  /// \returns true if every expectation check passed.
  bool expectationsOk() const;
};

/// Service tuning knobs.
struct ServiceConfig {
  /// Worker threads of the job pool. 0 means one per hardware thread.
  unsigned Workers = 1;
  /// Cache verdicts keyed by canonicalised program + model + solver.
  bool CacheVerdicts = true;

  static ServiceConfig sequential() { return {1, true}; }
};

/// The batch litmus service. Thread-compatible: one service may be driven
/// from one thread at a time; its own pool fans jobs out internally.
class LitmusService {
public:
  LitmusService() = default;
  explicit LitmusService(ServiceConfig Cfg) : Cfg(Cfg) {}

  const ServiceConfig &config() const { return Cfg; }
  /// \returns the configured worker count (resolves Workers == 0).
  unsigned effectiveWorkers() const;
  /// \returns the number of workers run() uses for \p Jobs jobs: the
  /// configured count, but never more workers than jobs.
  unsigned workersFor(size_t Jobs) const;

  /// Runs \p Jobs on the worker pool. The result vector is index-aligned
  /// with the submission order and byte-for-byte identical for every
  /// worker count (FromCache excepted, see its comment).
  std::vector<LitmusJobResult> run(const std::vector<LitmusJob> &Jobs);

  /// Runs a single job synchronously (worker pool bypassed; the cache is
  /// still consulted).
  LitmusJobResult runOne(const LitmusJob &Job);

  /// Hit/miss counters of the verdict cache, cumulative over the service's
  /// lifetime.
  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };
  CacheStats cacheStats() const;
  void clearCache();

  /// The cache key of \p Job: the canonical re-emission of its parsed
  /// program (whitespace, comments and line-ending differences collapse)
  /// plus model and process solver. \returns std::nullopt for unparseable
  /// jobs (which are never cached).
  static std::optional<std::string> cacheKey(const LitmusJob &Job);

private:
  LitmusJobResult computeResult(const LitmusJob &Job,
                                const std::optional<LitmusFile> &File,
                                const LitmusParseDiag &ParseDiag) const;
  /// runOne minus the per-job telemetry: cache lookup, else compute (with
  /// a per-job solver-activity sink when metrics are on) and populate.
  /// \p CacheHit reports whether the cache served the result.
  LitmusJobResult lookupOrCompute(const LitmusJob &Job, bool &CacheHit);

  ServiceConfig Cfg;
  mutable std::mutex CacheMu;
  std::map<std::string, LitmusJobResult> Cache;
  CacheStats Stats;
};

/// The cross-model verdict table of \p P on \p E, filled into \p R (the
/// job's result so far): "js-original", "js-revised", "armv8", "uni-js"
/// (the uni-size JavaScript model, judged in the six targets' one walk)
/// and the six targets, each by the path of single-model jobs and omitted
/// where its backend does not apply, plus the Thm 6.3 soundness diff (target
/// outcomes uni-js forbids) and the §3.1 weakening diff (target outcomes
/// js-original forbids). When R.StaticallyDrf holds, every applicable
/// column is the SC table, computed once (the DRF-SC theorem; see
/// ARCHITECTURE.md), as in a single-model job; otherwise \p E walks each
/// column. \p SV, when given, is analysis::analyzeValues(P); the
/// JavaScript and target walks prune with it under
/// EngineConfig::StaticFastPath.
LitmusJobResult differentialTable(const Program &P,
                                  const ExecutionEngine &E = ExecutionEngine(),
                                  LitmusJobResult R = LitmusJobResult(),
                                  const analysis::StaticValues *SV = nullptr);

/// The built-in differential corpus (targets/Differential.h) as service
/// jobs: parser-loaded entries keep their source text, programmatic
/// entries go through the canonical emitter of their u32 rendering. The
/// shared job list of jsmm-batch --corpus, the service benches and the
/// determinism tests.
std::vector<LitmusJob>
differentialCorpusJobs(const std::string &Model = "differential",
                       unsigned Threads = 1);

/// The large-program corpus (targets/Differential.h, 65+ events each) as
/// service jobs — the workload of the `large_program_jobs_per_sec` bench
/// floor and the large-job determinism tests, and jsmm-batch
/// --corpus=large.
std::vector<LitmusJob>
largeCorpusJobs(const std::string &Model = "differential",
                unsigned Threads = 1);

} // namespace jsmm

#endif // JSMM_SERVICE_LITMUSSERVICE_H
