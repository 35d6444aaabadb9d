//===- tools/jsmm_batch.cpp - Batch litmus service front door -------------===//
///
/// \file
/// The herd7/diy-scale batch runner over the LitmusService: consume a
/// JSONL job file, a directory of .litmus files, individual litmus files,
/// or the built-in differential corpus; emit one JSON verdict object per
/// job, in submission order, byte-identical for every --workers value.
///
///   jsmm-batch jobs.jsonl                       # one job per JSON line
///   jsmm-batch examples/litmus --model=revised  # every .litmus, sorted
///   jsmm-batch a.litmus b.litmus --workers=4    # explicit files
///   jsmm-batch --corpus                         # differential corpus
///   jsmm-batch --corpus=large                   # 65+-event corpus
///
/// JSONL job lines are objects with "litmus" (inline source) or "file"
/// (path, relative to the job file), plus optional "name", "model"
/// (default: the --model flag), "threads", "reduce" and "static"
/// (booleans; defaults: the --reduce flag / --no-static absent). A
/// malformed line or an unreadable file fails that job — never the batch.
///
/// Output lines carry: job index, name, model, status
/// (ok / too-large / parse-error / unsupported), the allowed-outcome sets
/// per backend, differential soundness/weakening diffs, the checked
/// allow/forbid expectations, and a "static" object (the pre-analysis
/// summary: drf certificate, may-race and lint counts, whether the DRF-SC
/// fast path served the verdicts, and the value-aware pruning effort —
/// "rf_pruned" writer choices and "paths_pruned" path combinations cut
/// during full enumerations). A summary with cache and throughput
/// numbers goes to stderr, keeping stdout deterministic.
///
/// Exit status: 0 all jobs ok and expectations hold; 1 some job failed;
/// 2 usage or input-level errors.
///
//===----------------------------------------------------------------------===//

#include "service/LitmusService.h"
#include "support/Json.h"
#include "tools/CliFlags.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

using namespace jsmm;

namespace {

int usage() {
  std::cerr
      << "usage: jsmm-batch <jobs.jsonl | directory | file.litmus>... "
         "[options]\n"
         "       jsmm-batch --corpus [options]\n"
         "       jsmm-batch --corpus=large [options]   (65+-event programs)\n"
         "options:\n"
         "  --model=NAME   backend for directory/file jobs (default: "
         "differential)\n"
         "  --workers=N    worker pool size (default 1; 0 = one per "
         "hardware thread)\n"
         "  --no-cache     disable the verdict cache\n"
         "  --output=PATH  write the JSONL stream to PATH instead of "
         "stdout\n"
         "shared flags (--stats adds per-job solver counters to the JSONL "
         "stream and a\nlatency/cache summary on stderr; --stats=json ends "
         "the stream with the record):\n"
      << CliFlags::Help;
  return 2;
}

/// One job of the batch: either a service job, or an input-layer failure
/// (unreadable file, malformed JSONL line) pinned to its submission slot.
struct PendingJob {
  LitmusJob Job;
  std::optional<LitmusJobResult> PreFailed;
};

LitmusJobResult inputFailure(const std::string &Name, const std::string &Model,
                             JobStatus Status, const std::string &Error) {
  LitmusJobResult R;
  R.Name = Name;
  R.Model = Model;
  R.Status = Status;
  R.Error = Error;
  return R;
}

/// Parses one JSONL job line into \p Out; members the line omits keep
/// their \p Defaults value. \returns false with \p Error on a malformed
/// line; \p Out then keeps what was read, so a failed job keeps its
/// "name" and "model".
bool jobFromJsonLine(const std::string &Line, const std::string &BaseDir,
                     const LitmusJob &Defaults, LitmusJob &Out,
                     std::string &Error) {
  std::string JsonError;
  std::optional<JsonValue> V = parseJson(Line, &JsonError);
  if (!V) {
    Error = "malformed JSON job line (" + JsonError + ")";
    return false;
  }
  if (!V->isObject()) {
    Error = "job line must be a JSON object";
    return false;
  }
  Out = Defaults;
  // Optional members: the first one of the wrong type fails the line.
  auto Typed = [&Error](const char *Key, bool Ok, const std::string &Type) {
    if (!Ok && Error.empty())
      Error = std::string("\"") + Key + "\" must be " + Type;
    return Ok;
  };
  auto String = [&](const char *Key, std::string &Into) {
    if (const JsonValue *M = V->find(Key))
      if (Typed(Key, M->isString(), "a string"))
        Into = M->asString();
  };
  auto Bool = [&](const char *Key, bool &Into) {
    if (const JsonValue *M = V->find(Key))
      if (Typed(Key, M->isBool(), "a boolean"))
        Into = M->asBool();
  };
  String("name", Out.Name);
  String("model", Out.Model);
  if (const JsonValue *Threads = V->find("threads")) {
    // Range-check before the cast: converting an out-of-range double to
    // unsigned is undefined behaviour, not a wrapped value.
    double N = Threads->isNumber() ? Threads->asNumber() : -1;
    if (Typed("threads", N >= 0 && N <= MaxThreadCount && N == std::floor(N),
              "an integer from 0 to " + std::to_string(MaxThreadCount)))
      Out.Threads = static_cast<unsigned>(N);
  }
  Bool("reduce", Out.Reduce);
  Bool("static", Out.Static);
  if (V->find("litmus")) {
    String("litmus", Out.Litmus);
    return Error.empty();
  }
  std::string File;
  String("file", File);
  if (!Error.empty())
    return false;
  if (V->find("file")) {
    std::filesystem::path P(File);
    if (P.is_relative() && !BaseDir.empty())
      P = std::filesystem::path(BaseDir) / P;
    std::optional<std::string> Text = readFileText(P.string());
    if (!Text) {
      Error = "cannot read litmus file '" + P.string() + "'";
      return false;
    }
    if (Out.Name.empty())
      Out.Name = P.stem().string();
    Out.Litmus = *Text;
    return true;
  }
  Error = "job line needs a \"litmus\" or \"file\" member";
  return false;
}

/// The per-job solver-activity object of the --stats JSONL rendering.
/// Every field is deterministic (see LitmusJobResult::Solver).
JsonValue solverJson(const SolverActivity &A) {
  JsonValue O = JsonValue::object();
  O.set("queries", JsonValue(static_cast<uint64_t>(A.Queries)));
  O.set("propagate_branches",
        JsonValue(static_cast<uint64_t>(A.PropagateBranches)));
  O.set("propagate_forced_edges",
        JsonValue(static_cast<uint64_t>(A.PropagateForcedEdges)));
  O.set("brute_extensions",
        JsonValue(static_cast<uint64_t>(A.BruteExtensions)));
  return O;
}

/// Renders one result as its deterministic JSONL object. \p WithSolver
/// (--stats) appends the job's solver-activity counters.
std::string renderResult(size_t Index, const LitmusJobResult &R,
                         bool WithSolver) {
  JsonValue Obj = JsonValue::object();
  Obj.set("job", JsonValue(static_cast<uint64_t>(Index)));
  Obj.set("name", JsonValue(R.Name));
  Obj.set("model", JsonValue(R.Model));
  Obj.set("status", JsonValue(jobStatusName(R.Status)));
  if (!R.ok()) {
    Obj.set("error", JsonValue(R.Error));
    return Obj.toString();
  }
  auto Strings = [](const std::vector<std::string> &Items) {
    JsonValue Arr = JsonValue::array();
    for (const std::string &S : Items)
      Arr.push(JsonValue(S));
    return Arr;
  };
  JsonValue Allowed = JsonValue::object();
  for (const auto &[Backend, Outcomes] : R.AllowedByBackend)
    Allowed.set(Backend, Strings(Outcomes));
  Obj.set("allowed", std::move(Allowed));
  if (R.Model == "differential") {
    Obj.set("soundness_violations", Strings(R.SoundnessViolations));
    Obj.set("observable_weakenings", Strings(R.ObservableWeakenings));
  }
  if (!R.Expectations.empty()) {
    JsonValue Exp = JsonValue::array();
    for (const ExpectationResult &E : R.Expectations) {
      JsonValue EO = JsonValue::object();
      EO.set("expect", JsonValue(E.Allowed ? "allow" : "forbid"));
      EO.set("outcome", JsonValue(E.Outcome));
      EO.set("observed", JsonValue(E.Observed ? "allowed" : "forbidden"));
      EO.set("ok", JsonValue(E.Ok));
      Exp.push(std::move(EO));
    }
    Obj.set("expectations", std::move(Exp));
  }
  if (R.HasStatic) {
    // The pre-analysis summary: a deterministic function of the job, so
    // the stream stays byte-identical for every --workers value.
    JsonValue St = JsonValue::object();
    St.set("drf", JsonValue(R.StaticallyDrf));
    St.set("may_races", JsonValue(static_cast<uint64_t>(R.StaticMayRaces)));
    St.set("lints", JsonValue(static_cast<uint64_t>(R.StaticLints)));
    St.set("fastpath", JsonValue(R.DrfFastPath));
    St.set("rf_pruned", JsonValue(static_cast<uint64_t>(R.StaticRfPruned)));
    St.set("paths_pruned",
           JsonValue(static_cast<uint64_t>(R.StaticPathsPruned)));
    Obj.set("static", std::move(St));
  }
  if (WithSolver && R.HasSolverStats)
    Obj.set("solver", solverJson(R.Solver));
  return Obj.toString();
}

} // namespace

int main(int Argc, char **Argv) {
  CliFlags Flags("jsmm-batch");
  std::vector<std::string> Args;
  if (!Flags.parse(Argc, Argv, Args))
    return 2;
  std::vector<std::string> Inputs;
  std::string Model = "differential";
  std::string OutputPath;
  unsigned Workers = 1;
  bool UseCorpus = false;
  bool UseLargeCorpus = false;
  bool NoCache = false;

  for (const std::string &Arg : Args) {
    if (Arg == "--corpus") {
      UseCorpus = true;
    } else if (Arg == "--corpus=large") {
      UseLargeCorpus = true;
    } else if (Arg == "--no-cache") {
      NoCache = true;
    } else if (Arg.rfind("--model=", 0) == 0) {
      Model = Arg.substr(8);
    } else if (Arg.rfind("--output=", 0) == 0) {
      OutputPath = Arg.substr(9);
    } else if (Arg.rfind("--workers=", 0) == 0) {
      std::optional<unsigned> N =
          parseThreadCount("jsmm-batch", "--workers", Arg.substr(10));
      if (!N)
        return 2;
      Workers = *N;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Inputs.push_back(Arg);
    }
  }
  if (Inputs.empty() && !UseCorpus && !UseLargeCorpus)
    return usage();

  // Collect jobs in submission order. Input-layer failures (unreadable
  // files, malformed JSONL lines) keep their slot as pre-failed results.
  LitmusJob Defaults;
  Defaults.Model = Model;
  Defaults.Threads = Flags.Threads;
  Defaults.Reduce = Flags.Reduce;
  Defaults.Static = Flags.Static;
  std::vector<PendingJob> Pending;
  auto AddCorpus = [&](std::vector<LitmusJob> Corpus) {
    for (LitmusJob &J : Corpus) {
      J.Reduce = Defaults.Reduce;
      J.Static = Defaults.Static;
      Pending.push_back({std::move(J), std::nullopt});
    }
  };
  if (UseCorpus)
    AddCorpus(differentialCorpusJobs(Model, Flags.Threads));
  if (UseLargeCorpus)
    AddCorpus(largeCorpusJobs(Model, Flags.Threads));
  // A litmus file as a job named after it; pre-failed when unreadable.
  auto AddFile = [&](const std::string &Path) {
    PendingJob P{Defaults, std::nullopt};
    P.Job.Name = std::filesystem::path(Path).stem().string();
    if (std::optional<std::string> Text = readFileText(Path))
      P.Job.Litmus = *Text;
    else
      P.PreFailed = inputFailure(P.Job.Name, Model, JobStatus::ParseError,
                                 "cannot read '" + Path + "'");
    Pending.push_back(std::move(P));
  };
  for (const std::string &Input : Inputs) {
    std::error_code Ec;
    if (std::filesystem::is_directory(Input, Ec)) {
      std::vector<std::string> Files;
      std::filesystem::directory_iterator It(Input, Ec);
      if (Ec) {
        std::cerr << "jsmm-batch: cannot list '" << Input
                  << "': " << Ec.message() << "\n";
        return 2;
      }
      for (std::filesystem::directory_iterator End; It != End;
           It.increment(Ec)) {
        if (Ec) {
          std::cerr << "jsmm-batch: error listing '" << Input
                    << "': " << Ec.message() << "\n";
          return 2;
        }
        if (It->path().extension() == ".litmus")
          Files.push_back(It->path().string());
      }
      std::sort(Files.begin(), Files.end());
      if (Files.empty()) {
        std::cerr << "jsmm-batch: no .litmus files in '" << Input << "'\n";
        return 2;
      }
      for (const std::string &Path : Files)
        AddFile(Path);
    } else if (Input.size() > 6 &&
               Input.compare(Input.size() - 6, 6, ".jsonl") == 0) {
      std::optional<std::string> Text = readFileText(Input);
      if (!Text) {
        std::cerr << "jsmm-batch: cannot open '" << Input << "'\n";
        return 2;
      }
      std::string BaseDir =
          std::filesystem::path(Input).parent_path().string();
      std::istringstream In(*Text);
      std::string Line;
      unsigned LineNo = 0;
      while (std::getline(In, Line)) {
        ++LineNo;
        // Tolerate blank lines and CRLF job files.
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        if (Line.find_first_not_of(" \t") == std::string::npos)
          continue;
        PendingJob P;
        std::string Error;
        if (!jobFromJsonLine(Line, BaseDir, Defaults, P.Job, Error))
          P.PreFailed = inputFailure(
              P.Job.Name.empty() ? "line-" + std::to_string(LineNo)
                                 : P.Job.Name,
              P.Job.Model.empty() ? Model : P.Job.Model,
              JobStatus::ParseError,
              Input + ":" + std::to_string(LineNo) + ": " + Error);
        Pending.push_back(std::move(P));
      }
    } else {
      AddFile(Input);
    }
  }
  if (Pending.empty()) {
    std::cerr << "jsmm-batch: no jobs\n";
    return 2;
  }

  // Submit the runnable slots to the service; pre-failed slots keep their
  // input-layer result.
  std::vector<LitmusJob> Jobs;
  std::vector<size_t> JobSlot;
  for (size_t I = 0; I < Pending.size(); ++I) {
    if (Pending[I].PreFailed)
      continue;
    Jobs.push_back(Pending[I].Job);
    JobSlot.push_back(I);
  }

  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  Cfg.CacheVerdicts = !NoCache;
  LitmusService Service(Cfg);
  if (!Flags.start())
    return 2;

  auto Start = std::chrono::steady_clock::now();
  std::vector<LitmusJobResult> RunResults = Service.run(Jobs);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  std::vector<LitmusJobResult> Results(Pending.size());
  for (size_t I = 0; I < Pending.size(); ++I)
    if (Pending[I].PreFailed)
      Results[I] = *Pending[I].PreFailed;
  for (size_t J = 0; J < RunResults.size(); ++J)
    Results[JobSlot[J]] = RunResults[J];

  std::ofstream OutFile;
  if (!OutputPath.empty()) {
    OutFile.open(OutputPath);
    if (!OutFile) {
      std::cerr << "jsmm-batch: cannot write '" << OutputPath << "'\n";
      return 2;
    }
  }
  std::ostream &Out = OutputPath.empty() ? std::cout : OutFile;

  size_t OkJobs = 0, FailedExpectations = 0;
  for (size_t I = 0; I < Results.size(); ++I) {
    Out << renderResult(I, Results[I], Flags.Stats) << "\n";
    if (Results[I].ok()) {
      ++OkJobs;
      if (!Results[I].expectationsOk())
        ++FailedExpectations;
    }
  }

  LitmusService::CacheStats CS = Service.cacheStats();
  // The pool never starts more workers than there are jobs to run.
  unsigned UsedWorkers = Service.workersFor(Jobs.size());
  if (Flags.StatsJson) {
    // One machine-readable run-summary record closes the stream: the
    // registry's deterministic "counters" section plus the run's job,
    // cache and throughput numbers. tools/perf_trend.py ingests this.
    JsonValue Summary = obs::runSummary("jsmm-batch");
    JsonValue JobsObj = JsonValue::object();
    JobsObj.set("total", JsonValue(static_cast<uint64_t>(Results.size())));
    JobsObj.set("ok", JsonValue(static_cast<uint64_t>(OkJobs)));
    JobsObj.set("failed",
                JsonValue(static_cast<uint64_t>(Results.size() - OkJobs)));
    JobsObj.set("failed_expectations",
                JsonValue(static_cast<uint64_t>(FailedExpectations)));
    Summary.set("jobs", std::move(JobsObj));
    JsonValue CacheObj = JsonValue::object();
    CacheObj.set("hits", JsonValue(static_cast<uint64_t>(CS.Hits)));
    CacheObj.set("misses", JsonValue(static_cast<uint64_t>(CS.Misses)));
    CacheObj.set("hit_rate",
                 JsonValue(CS.Hits + CS.Misses
                               ? static_cast<double>(CS.Hits) /
                                     static_cast<double>(CS.Hits + CS.Misses)
                               : 0.0));
    Summary.set("cache", std::move(CacheObj));
    Summary.set("workers", JsonValue(static_cast<uint64_t>(UsedWorkers)));
    Summary.set("wall_s", JsonValue(Seconds));
    Summary.set("jobs_per_sec",
                JsonValue(Seconds > 0
                              ? static_cast<double>(Jobs.size()) / Seconds
                              : 0.0));
    Out << Summary.toString() << "\n";
  }
  std::cerr << "jsmm-batch: " << Results.size() << " jobs, " << OkJobs
            << " ok, " << (Results.size() - OkJobs) << " failed, "
            << FailedExpectations << " with failed expectations; cache "
            << CS.Hits << " hits / " << CS.Misses << " misses; "
            << UsedWorkers << (UsedWorkers == 1 ? " worker, " : " workers, ")
            << Seconds << " s";
  if (Seconds > 0)
    std::cerr << " (" << (static_cast<double>(Jobs.size()) / Seconds)
              << " jobs/s)";
  std::cerr << "\n";
  if (Flags.Stats && !Flags.StatsJson) {
    std::cerr << "jsmm-batch: ";
    CliFlags::printJobWall(std::cerr);
    std::cerr << "; solver queries "
              << obs::registry().counter("solver.queries").value() << "\n";
  }

  bool AllOk = OkJobs == Results.size() && FailedExpectations == 0;
  return AllOk ? 0 : 1;
}
