//===- perfbench/src/main.cpp - Closed-loop benchmark of the service door -===//
///
/// \file
/// One workload per process. Set-up (inputs, fixtures, warm-up round) runs
/// several times and reports its median; then a closed loop of client
/// threads, each with its own LitmusService (verdict cache off), sends its
/// next job only after the previous one returned, in whole passes over the
/// workload's job list, until the run's seconds are spent. Every job's
/// answer is checked against a reference after the timed phase.
///
/// Usage:
///   perfbench --workload corpus|gen-racy|large|search --seed N
///             --seconds S --trace 0|1 [--fixtures DIR] [--trace-out FILE]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 alternates service
/// passes with traced-replica passes and prints the per-layer metrics.
/// The last line of stdout is the JSON result; a human-readable report
/// goes to stderr.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Tracing.h"
#include "Workloads.h"

#include "engine/TargetModel.h"
#include "support/Json.h"
#include "support/Str.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

using namespace jsmm;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation: the start of set-up.
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// The box's speed during a run, measured with a fixed piece of work of the
/// benchmark's own (so no change to the library moves it): ordered-map
/// inserts, small allocations and bit arithmetic, the mix the service's
/// hot loops run. It takes about RefCalibrationMs on the box the bounds
/// were set on. Shared 4-vCPU boxes drift by 10-25% over minutes, in CPU
/// time as much as in wall time, which no 20-second run averages out;
/// timing this work between jobs, on the same threads and under the same
/// load, measures that drift so the reported rates and latencies can be
/// scaled back to the reference speed.
double calibrationMs() {
  static std::atomic<uint64_t> Sink{0}; // keeps the work from being elided
  Clock::time_point T0 = Clock::now();
  std::mt19937_64 R(42);
  std::map<uint64_t, uint64_t> M;
  uint64_t Acc = 0;
  for (int I = 0; I < 1500; ++I) {
    M[R() % 4096] += I;
    std::vector<uint64_t> V(32);
    for (uint64_t &X : V)
      X = R();
    for (int K = 0; K < 32; ++K)
      Acc += static_cast<uint64_t>(std::popcount(V[K] & (V[(K + 1) % 32] << 3)));
  }
  Sink.store(Acc + M.size(), std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

constexpr double RefCalibrationMs = 1.0;
/// A client times the calibration work at most this often.
constexpr auto CalibrationEvery = std::chrono::milliseconds(100);

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Options {
  Workload W = Workload::Corpus;
  std::string WorkloadName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Fixtures = "perfbench/fixtures";
  std::string TraceOut;
};

constexpr unsigned SetupRepeats = 3;
/// Calibrations timed after each set-up, for the set-up's own speed.
constexpr unsigned SetupCalibrations = 3;

/// Clients of the closed loop: two for the service workloads (the box has
/// four cores and is shared), one for the searches, which the sweep runs
/// one at a time.
unsigned clientsFor(Workload W) { return W == Workload::Search ? 1 : 2; }

/// What one client observed for one job of the list.
struct JobTally {
  size_t TableAt = 0;  ///< the first result's tableBytes, in ClientRun::Tables
  size_t TableLen = 0;
  size_t FirstHash = 0;
  /// The first result's mismatch against the reference; references that
  /// are computed after the phase are checked on FirstTable then.
  std::string FirstError;
  uint64_t Count = 0;
  uint64_t Diverged = 0; ///< later results whose table differs from the first
};

/// Samples one client can hold before it keeps a random subset.
constexpr size_t SampleCapacity = 1u << 20;
/// Room reserved for one client's first tables (gen-racy needs ~0.5 MB).
constexpr size_t TableArenaBytes = 4u << 20;

/// One client's share of a timed phase.
struct ClientRun {
  ClientRun(size_t Jobs, uint64_t Seed)
      : Samples(SampleCapacity, Seed), Jobs(Jobs) {}
  SampleBuffer Samples; ///< job latencies in ms
  std::vector<JobTally> Jobs;
  /// The first tables of all jobs, back to back in one allocation: kept
  /// as separate strings they would pin heap pages among the service's
  /// short-lived allocations and make the peak RSS vary from run to run.
  std::string Tables;
  std::string firstTable(size_t I) const {
    return Tables.substr(Jobs[I].TableAt, Jobs[I].TableLen);
  }
  uint64_t Completed = 0;
  uint64_t SearchFailures = 0;
  std::vector<std::string> SearchErrors;
  /// Elapsed seconds of the client's passes, calibration excluded.
  double ElapsedS = 0;
  std::vector<double> CalibrationMs;
  /// Traced runs: the jobs and seconds of the traced passes.
  uint64_t TracedJobs = 0;
  double TracedS = 0;
  std::unique_ptr<SpanLog> Log;
  LayerCounts Counts;
};

/// A timed phase: the clients' runs plus process-wide CPU time.
struct Phase {
  std::vector<ClientRun> Clients;
  double WallS = 0;
  double CpuS = 0;
  uint64_t completed() const {
    uint64_t N = 0;
    for (const ClientRun &C : Clients)
      N += C.Completed;
    return N;
  }
};

/// Runs the closed loop for \p Seconds: each client walks the job list in
/// whole passes, in its own seeded order, and stops at the first pass
/// boundary past the deadline — every sample set holds each job equally
/// often, so medians and rates do not depend on where a run was cut.
///
/// With \p Traced, every second pass runs the traced replica instead of
/// the service, and the run ends after a traced pass: traced and untraced
/// passes interleave, so the box's drifting speed weighs on both alike, and
/// every traced table is compared with the service's table of the first
/// pass like any later result.
Phase runPhase(const Options &O, const WorkloadInputs &In, double Seconds,
               bool Traced) {
  unsigned N = clientsFor(O.W);
  Phase P;
  for (unsigned C = 0; C < N; ++C)
    P.Clients.emplace_back(In.Jobs.size(), O.Seed + C);
  double Cpu0 = cpuSeconds();
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  auto Client = [&](unsigned C) {
    ClientRun &R = P.Clients[C];
    R.Log = std::make_unique<SpanLog>(Start);
    LitmusService Svc(ServiceConfig{1, /*CacheVerdicts=*/false});
    std::mt19937_64 Rng(O.Seed * 1000003u + C);
    std::vector<size_t> Order(In.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::hash<std::string> Hash;
    R.Tables.reserve(TableArenaBytes);
    Clock::time_point LastCalibration = Start;
    double CalibrationS = 0;
    for (unsigned Pass = 0;; ++Pass) {
      bool TracedPass = Traced && Pass % 2 == 1;
      Clock::time_point PassStart = Clock::now();
      double CalibrationAtStart = CalibrationS;
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t I : Order) {
        auto Id = static_cast<uint32_t>(I);
        if (!In.Searches.empty()) {
          const SearchJob &S = In.Searches[I];
          Clock::time_point T0 = Clock::now();
          SearchAnswer A = TracedPass ? tracedSearch(S, Id, *R.Log, R.Counts)
                                      : runSearch(S);
          R.Samples.add(
              std::chrono::duration<double, std::milli>(Clock::now() - T0)
                  .count());
          std::string Err = checkSearch(A, S);
          if (!Err.empty()) {
            ++R.SearchFailures;
            R.SearchErrors.push_back(Err);
          }
        } else {
          const LitmusJob &J = In.Jobs[I].Job;
          Clock::time_point T0 = Clock::now();
          LitmusJobResult Res = TracedPass
                                    ? tracedCompute(J, Id, *R.Log, R.Counts)
                                    : Svc.runOne(J);
          R.Samples.add(
              std::chrono::duration<double, std::milli>(Clock::now() - T0)
                  .count());
          JobTally &T = R.Jobs[I];
          std::string Table = tableBytes(Res);
          size_t H = Hash(Table);
          if (T.Count++ == 0) {
            T.TableAt = R.Tables.size();
            T.TableLen = Table.size();
            R.Tables += Table;
            T.FirstHash = H;
            if (!In.Jobs[I].Ref.Deferred)
              T.FirstError = checkResult(Res, In.Jobs[I].Ref);
          } else if (H != T.FirstHash) {
            ++T.Diverged;
          }
        }
        ++R.Completed;
        R.TracedJobs += TracedPass;
        if (Clock::now() - LastCalibration >= CalibrationEvery) {
          R.CalibrationMs.push_back(calibrationMs());
          CalibrationS += R.CalibrationMs.back() / 1000;
          LastCalibration = Clock::now();
        }
      }
      if (TracedPass)
        R.TracedS +=
            secondsSince(PassStart) - (CalibrationS - CalibrationAtStart);
      if (Clock::now() >= Deadline && (!Traced || TracedPass))
        break;
    }
    R.ElapsedS = secondsSince(Start) - CalibrationS;
  };
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < N; ++C)
    Threads.emplace_back(Client, C);
  for (std::thread &T : Threads)
    T.join();
  P.WallS = secondsSince(Start);
  P.CpuS = cpuSeconds() - Cpu0;
  return P;
}

/// Failure accounting of a phase against the references.
struct Verdict {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  /// Per client: completions that passed every check.
  std::vector<uint64_t> OkPerClient;
};

Verdict checkPhase(const Phase &P, std::vector<BenchJob> &Jobs) {
  Verdict V;
  for (const ClientRun &C : P.Clients) {
    uint64_t Failed = C.SearchFailures;
    for (const std::string &E : C.SearchErrors)
      V.Errors.push_back(E);
    for (size_t I = 0; I < C.Jobs.size(); ++I) {
      const JobTally &T = C.Jobs[I];
      if (!T.Count)
        continue;
      std::string Err = T.FirstError;
      if (Jobs[I].Ref.Deferred) {
        computeDeferredReference(Jobs[I]);
        Err = checkTableBytes(C.firstTable(I), Jobs[I].Ref);
      }
      const LitmusJob &J = Jobs[I].Job;
      if (!Err.empty()) {
        Failed += T.Count;
        V.Errors.push_back(J.Name + " [" + J.Model + "]: " + Err);
      } else if (T.Diverged) {
        Failed += T.Diverged;
        V.Errors.push_back(J.Name + " [" + J.Model +
                           "]: table differs from its first pass's");
      }
    }
    V.Attempted += C.Completed;
    V.Failed += Failed;
    V.OkPerClient.push_back(C.Completed - Failed);
  }
  return V;
}

/// Jobs finished ok per second: each client's ok count over its own
/// elapsed time, summed — a client that finished its last pass early is
/// not charged for waiting on the other.
double jobsPerSecond(const Phase &P, const Verdict &V) {
  double Rate = 0;
  for (size_t C = 0; C < P.Clients.size(); ++C)
    if (P.Clients[C].ElapsedS > 0)
      Rate += static_cast<double>(V.OkPerClient[C]) / P.Clients[C].ElapsedS;
  return Rate;
}

std::vector<double> sortedLatencies(const Phase &P) {
  std::vector<double> All;
  for (const ClientRun &C : P.Clients)
    C.Samples.appendTo(All);
  std::sort(All.begin(), All.end());
  return All;
}

void addMetric(JsonValue &Metrics, const std::string &Name, double Value,
               const char *Unit) {
  JsonValue M = JsonValue::object();
  M.set("value", JsonValue(Value));
  M.set("unit", JsonValue(Unit));
  Metrics.set(Name, std::move(M));
}

void printResult(const Verdict &V, JsonValue Metrics) {
  JsonValue Out = JsonValue::object();
  Out.set("correct", JsonValue(V.Failed == 0));
  Out.set("attempted", JsonValue(V.Attempted));
  Out.set("failed", JsonValue(V.Failed));
  Out.set("metrics", std::move(Metrics));
  std::cout << Out.toString() << std::endl;
}

void reportErrors(const Verdict &V) {
  for (size_t I = 0; I < V.Errors.size() && I < 10; ++I)
    std::cerr << "  FAIL " << V.Errors[I] << "\n";
}

/// One set-up: inputs, fixtures and the warm-up round.
WorkloadInputs setUp(const Options &O) {
  WorkloadInputs In = makeInputs(O.W, O.Seed, O.Fixtures);
  LitmusService Svc(ServiceConfig{1, /*CacheVerdicts=*/false});
  for (size_t I = 0; I < In.WarmupCount && I < In.size(); ++I) {
    if (In.Searches.empty())
      Svc.runOne(In.Jobs[I].Job);
    else
      runSearch(In.Searches[I]);
  }
  return In;
}

/// Median calibration time of a phase, over every client's samples.
double calibrationOf(const Phase &P) {
  std::vector<double> All;
  for (const ClientRun &C : P.Clients)
    All.insert(All.end(), C.CalibrationMs.begin(), C.CalibrationMs.end());
  return median(All);
}

/// \p SetupRawS is the median set-up time, \p SetupCalMs the median
/// calibration time taken between the set-ups.
int runEndToEnd(const Options &O, WorkloadInputs &In, double SetupRawS,
                double SetupCalMs) {
  Phase P = runPhase(O, In, O.Seconds, /*Traced=*/false);
  double RssMb = peakRssMb(); // before the references add their own memory
  Verdict V = checkPhase(P, In.Jobs);
  std::vector<double> Lat = sortedLatencies(P);
  double CalMs = calibrationOf(P);
  if (Lat.empty() || CalMs <= 0) {
    std::cerr << "perfbench: no samples\n";
    return 1;
  }
  // Rates and latencies at the reference speed (see calibrationMs); the
  // raw figures are in the report line. Set-up is scaled by the speed
  // measured next to it, since the box's speed drifts between the two.
  double Speed = RefCalibrationMs / CalMs;
  double SetupS = SetupRawS * RefCalibrationMs / SetupCalMs;
  double RawRate = jobsPerSecond(P, V);
  double Rate = RawRate / Speed;
  for (double &L : Lat)
    L *= Speed;

  double FailRate =
      V.Attempted ? static_cast<double>(V.Failed) / V.Attempted : 0;
  // Every figure of the run, tails included, as one machine-readable line
  // for the steadiness report; the gated metrics follow on stdout.
  JsonValue Report = JsonValue::object();
  Report.set("workload", JsonValue(O.WorkloadName));
  Report.set("seed", JsonValue(O.Seed));
  Report.set("samples", JsonValue(static_cast<uint64_t>(Lat.size())));
  Report.set("setup_s", JsonValue(SetupS));
  Report.set("jobs_per_s", JsonValue(Rate));
  std::cerr << "perfbench " << O.WorkloadName << " seed " << O.Seed << ": "
            << P.Clients.size() << " client(s), " << Lat.size()
            << " jobs in " << P.WallS << " s wall; calibration " << CalMs
            << " ms (reference " << RefCalibrationMs << ")\n"
            << "  setup_s      " << SetupS << " (median of " << SetupRepeats
            << "; raw " << SetupRawS << ")\n"
            << "  jobs_per_s   " << Rate << " (raw " << RawRate << ")\n";
  // The searches of a run are a few dozen runs of seven fixed sizes: a
  // tail of them would be one search's time, so only the median is given.
  std::vector<unsigned> Pcts = {50};
  if (O.W != Workload::Search)
    Pcts = {50, 90, 99};
  for (unsigned Pct : Pcts) {
    std::optional<Percentile> Q = percentile(Lat, Pct);
    std::cerr << "  job_p" << Pct << "_ms   ";
    if (Q) {
      std::cerr << Q->Value << " (n=" << Q->Samples << ")\n";
      Report.set("job_p" + std::to_string(Pct) + "_ms", JsonValue(Q->Value));
    } else {
      std::cerr << "not reported (n=" << Lat.size() << " < "
                << minSamplesFor(Pct) << ")\n";
    }
  }
  Report.set("job_max_ms", JsonValue(Lat.back()));
  Report.set("cpu_s", JsonValue(P.CpuS));
  Report.set("peak_rss_mb", JsonValue(RssMb));
  Report.set("fail_rate", JsonValue(FailRate));
  Report.set("calibration_ms", JsonValue(CalMs));
  Report.set("setup_raw_s", JsonValue(SetupRawS));
  Report.set("setup_calibration_ms", JsonValue(SetupCalMs));
  Report.set("jobs_per_s_raw", JsonValue(RawRate));
  std::cerr << "  job_max_ms   " << Lat.back() << "\n"
            << "  cpu_s        " << P.CpuS << "\n"
            << "  peak_rss_mb  " << RssMb << "\n"
            << "  fail_rate    " << FailRate << " (" << V.Failed << "/"
            << V.Attempted << ")\n";
  std::optional<Percentile> P50 = percentile(Lat, 50);
  if (P50)
    Report.set("job_p50_raw_ms", JsonValue(P50->Value / Speed));
  std::cerr << "perfbench-report " << Report.toString() << "\n";
  reportErrors(V);
  if (!P50) {
    std::cerr << "perfbench: too few jobs for a median; raise --seconds\n";
    return 1;
  }

  JsonValue M = JsonValue::object();
  addMetric(M, "setup_s", SetupS, "s");
  addMetric(M, "jobs_per_s", Rate, "1/s");
  addMetric(M, "job_p50_ms", P50->Value, "ms");
  addMetric(M, "cpu_s", P.CpuS, "s");
  addMetric(M, "peak_rss_mb", RssMb, "MB");
  printResult(V, std::move(M));
  return 0;
}

/// The traced run: passes alternate between the service and the traced
/// replica (see runPhase), then the per-layer metrics.
int runTraced(const Options &O, WorkloadInputs &In) {
  Phase T = runPhase(O, In, O.Seconds, /*Traced=*/true);
  Verdict V = checkPhase(T, In.Jobs);

  // One value-analysis probe per job, outside the phase.
  SpanLog ValuesLog(Clock::now());
  for (size_t I = 0; I < In.Jobs.size(); ++I)
    tracedValueAnalysis(In.Jobs[I].Job, static_cast<uint32_t>(I), ValuesLog);

  std::vector<const SpanLog *> Logs;
  LayerCounts Counts;
  int64_t JobNs = 0, CoveredNs = 0;
  for (const ClientRun &C : T.Clients) {
    Logs.push_back(C.Log.get());
    Counts.add(C.Counts);
    for (const Span &S : C.Log->spans())
      if (S.Parent < 0)
        JobNs += S.EndNs - S.StartNs;
  }
  std::map<std::string, int64_t> Self = selfTimes(Logs);
  for (const auto &[Name, Ns] : Self)
    if (Name != "job")
      CoveredNs += Ns;
  if (!O.TraceOut.empty()) {
    std::vector<const SpanLog *> All = Logs;
    All.push_back(&ValuesLog);
    if (!writeSpans(O.TraceOut, All))
      std::cerr << "perfbench: cannot write " << O.TraceOut << "\n";
  }

  double Jobs = 0, TracedRate = 0, UntracedRate = 0;
  for (const ClientRun &C : T.Clients) {
    Jobs += static_cast<double>(C.TracedJobs);
    if (C.TracedS > 0 && C.ElapsedS > C.TracedS) {
      TracedRate += static_cast<double>(C.TracedJobs) / C.TracedS;
      UntracedRate += static_cast<double>(C.Completed - C.TracedJobs) /
                      (C.ElapsedS - C.TracedS);
    }
  }
  auto PerJobMs = [&](const std::string &Name) {
    auto It = Self.find(Name);
    return It == Self.end() || Jobs == 0 ? 0.0 : It->second / 1e6 / Jobs;
  };
  auto PerJob = [&](uint64_t Count) { return Jobs ? Count / Jobs : 0.0; };
  auto Ratio = [](uint64_t A, uint64_t B) {
    return B ? static_cast<double>(A) / B : 0.0;
  };
  double ValuesMs = 0;
  for (const auto &[Name, Ns] : selfTimes({&ValuesLog}))
    ValuesMs += Ns / 1e6;
  if (!In.Jobs.empty())
    ValuesMs /= static_cast<double>(In.Jobs.size());

  JsonValue M = JsonValue::object();
  for (const char *L : {"litmus.parse", "litmus.canonical", "analysis.classify"})
    addMetric(M, std::string(L) + "_ms", PerJobMs(L), "ms");
  addMetric(M, "analysis.values_ms", ValuesMs, "ms");
  addMetric(M, "analysis.sc_enum_ms", PerJobMs("analysis.sc_enum"), "ms");
  addMetric(M, "analysis.drf_jobs", PerJob(Counts.DrfJobs), "count");
  addMetric(M, "engine.js_original_ms", PerJobMs("engine.js_original"), "ms");
  addMetric(M, "engine.js_revised_ms", PerJobMs("engine.js_revised"), "ms");
  addMetric(M, "engine.candidates", PerJob(Counts.JsCandidates), "count");
  addMetric(M, "engine.valid_ratio", Ratio(Counts.JsValid, Counts.JsCandidates),
            "ratio");
  addMetric(M, "engine.pruned_subtrees", PerJob(Counts.PrunedSubtrees),
            "count");
  addMetric(M, "engine.slept_branches", PerJob(Counts.SleptBranches), "count");
  addMetric(M, "engine.static_rf_pruned", PerJob(Counts.StaticRfPruned),
            "count");
  addMetric(M, "engine.static_paths_pruned", PerJob(Counts.StaticPathsPruned),
            "count");
  addMetric(M, "engine.dyn_columns", PerJob(Counts.DynColumns), "count");
  addMetric(M, "armv8.enumerate_ms", PerJobMs("armv8.enumerate"), "ms");
  addMetric(M, "armv8.candidates", PerJob(Counts.ArmCandidates), "count");
  addMetric(M, "armv8.consistent_ratio",
            Ratio(Counts.ArmConsistent, Counts.ArmCandidates), "ratio");
  addMetric(M, "armv8.omitted_columns", PerJob(Counts.ArmOmitted), "count");
  addMetric(M, "compile.arm_ms", PerJobMs("compile.arm"), "ms");
  addMetric(M, "compile.target_ms", PerJobMs("compile.target"), "ms");
  addMetric(M, "unisize.uni_js_ms", PerJobMs("unisize.uni_js"), "ms");
  for (const TargetModel &TM : TargetModel::all())
    addMetric(M, std::string("targets.") + TM.name() + "_ms",
              PerJobMs(std::string("targets.") + TM.name()), "ms");
  addMetric(M, "targets.candidates", PerJob(Counts.TargetCandidates), "count");
  addMetric(M, "solver.queries", PerJob(Counts.SolverQueries), "count");
  addMetric(M, "solver.propagate_branches", PerJob(Counts.PropagateBranches),
            "count");
  addMetric(M, "solver.sat_decisions", PerJob(Counts.SatDecisions), "count");
  addMetric(M, "solver.sat_conflicts", PerJob(Counts.SatConflicts), "count");
  addMetric(M, "solver.sat_columns", PerJob(Counts.SatColumns), "count");
  addMetric(M, "search.compile_cex_ms", PerJobMs("search.compile_cex"), "ms");
  addMetric(M, "search.scdrf_cex_ms", PerJobMs("search.scdrf_cex"), "ms");
  addMetric(M, "search.bounded_ms", PerJobMs("search.bounded"), "ms");
  addMetric(M, "search.skeletons", PerJob(Counts.Skeletons), "count");
  addMetric(M, "search.rbf_candidates", PerJob(Counts.RbfCandidates), "count");
  addMetric(M, "search.arm_checks", PerJob(Counts.ArmChecks), "count");
  addMetric(M, "trace.coverage", Ratio(CoveredNs, JobNs), "ratio");
  addMetric(M, "trace.overhead", UntracedRate ? TracedRate / UntracedRate : 0,
            "ratio");

  std::cerr << "perfbench " << O.WorkloadName << " seed " << O.Seed
            << " traced: " << Jobs << " traced jobs of " << T.completed()
            << "; jobs_per_s " << TracedRate << " traced vs " << UntracedRate
            << " untraced; coverage " << Ratio(CoveredNs, JobNs) << "\n";
  reportErrors(V);
  printResult(V, std::move(M));
  return 0;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc) {
      std::cerr << "perfbench: " << Arg << " needs a value\n";
      return false;
    }
    std::string Val = Argv[++I];
    if (Arg == "--workload") {
      std::optional<Workload> W = workloadByName(Val);
      if (!W) {
        std::cerr << "perfbench: unknown workload '" << Val << "'\n";
        return false;
      }
      O.W = *W;
      O.WorkloadName = Val;
    } else if (Arg == "--seed") {
      std::optional<uint64_t> S = parseUnsigned64(Val);
      if (!S) {
        std::cerr << "perfbench: bad --seed '" << Val << "'\n";
        return false;
      }
      O.Seed = *S;
    } else if (Arg == "--seconds") {
      std::optional<unsigned> S = parseUnsigned(Val);
      if (!S || *S == 0) {
        std::cerr << "perfbench: bad --seconds '" << Val << "'\n";
        return false;
      }
      O.Seconds = *S;
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1") {
        std::cerr << "perfbench: --trace takes 0 or 1\n";
        return false;
      }
      O.Trace = Val == "1";
    } else if (Arg == "--fixtures") {
      O.Fixtures = Val;
    } else if (Arg == "--trace-out") {
      O.TraceOut = Val;
    } else {
      std::cerr << "perfbench: unknown option '" << Arg << "'\n";
      return false;
    }
  }
  if (O.WorkloadName.empty()) {
    std::cerr << "perfbench: --workload is required\n";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return 2;
  try {
    std::vector<double> SetupS, SetupCalMs;
    WorkloadInputs In;
    for (unsigned R = 0; R < SetupRepeats; ++R) {
      Clock::time_point T0 = R == 0 ? ProcessStart : Clock::now();
      In = setUp(O);
      SetupS.push_back(secondsSince(T0));
      for (unsigned K = 0; K < SetupCalibrations; ++K)
        SetupCalMs.push_back(calibrationMs());
    }
    return O.Trace ? runTraced(O, In)
                   : runEndToEnd(O, In, median(SetupS), median(SetupCalMs));
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << "\n";
    return 1;
  }
}
