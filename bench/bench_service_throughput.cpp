//===- bench_service_throughput.cpp - Batch service gate ------------------===//
///
/// \file
/// The reproduction gate of the batch litmus service: runs the full
/// differential corpus as service jobs at 1, 2 and hardware-many workers,
/// checks the batch contract (deterministic submission-order results for
/// every worker count, per-job error isolation, verdict-cache hits on
/// resubmission) and records the jobs/sec throughput. The headline
/// `service_jobs_per_sec` metric is also emitted by bench_perf_engine into
/// BENCH_perf-engine.json, where tools/perf_trend.py gates it against the
/// floor committed in bench/perf_baseline.json.
///
/// Usage: bench_service_throughput [--workers=N]   (N overrides the
/// hardware-many configuration; 0 = one worker per hardware thread)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "service/LitmusService.h"
#include "support/Str.h"

#include <algorithm>

#include <iostream>
#include <sstream>

using namespace jsmm;
using jsmm::bench::timedMs;

namespace {

std::string fingerprintAll(const std::vector<LitmusJobResult> &Results) {
  std::ostringstream Out;
  for (const LitmusJobResult &R : Results) {
    Out << jobStatusName(R.Status) << "|" << R.Name << "|" << R.Error;
    for (const auto &[Backend, Allowed] : R.AllowedByBackend) {
      Out << "|" << Backend << "=";
      for (const std::string &O : Allowed)
        Out << O << ";";
    }
    for (const std::string &S : R.SoundnessViolations)
      Out << "|S:" << S;
    Out << "\n";
  }
  return Out.str();
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned ManyWorkers = 0; // one per hardware thread
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--workers=", 0) == 0) {
      std::optional<unsigned> N = parseThreadCount(
          "bench_service_throughput", "--workers", Arg.substr(10));
      if (!N)
        return 2;
      ManyWorkers = *N;
    } else {
      std::cerr << "usage: bench_service_throughput [--workers=N]\n";
      return 2;
    }
  }

  jsmm::bench::Table T("service-throughput",
                       "batch litmus service over the differential corpus: "
                       "determinism, error isolation, cache, jobs/sec");

  std::vector<LitmusJob> Jobs = differentialCorpusJobs();
  T.note("corpus: " + std::to_string(Jobs.size()) +
         " differential jobs (9-backend table each)");

  // Warm-up: first-touch allocation noise out of the timings.
  { LitmusService Warm; Warm.run(Jobs); }

  // Resolve and dedupe the worker configurations up front: on a 1-core
  // runner the hardware-many leg collapses into w1, which would otherwise
  // emit a duplicate metric key and a vacuous determinism check.
  std::vector<unsigned> WorkerCounts;
  for (unsigned Workers : {1u, 2u, ManyWorkers}) {
    ServiceConfig Probe;
    Probe.Workers = Workers;
    unsigned Effective = LitmusService(Probe).effectiveWorkers();
    if (std::find(WorkerCounts.begin(), WorkerCounts.end(), Effective) ==
        WorkerCounts.end())
      WorkerCounts.push_back(Effective);
  }

  double BestJobsPerSec = 0;
  std::string Reference;
  for (unsigned Workers : WorkerCounts) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.CacheVerdicts = false; // measure computation, not the cache
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results;
    double Ms = timedMs([&] { Results = Service.run(Jobs); });
    double JobsPerSec = Ms > 0 ? 1000.0 * Jobs.size() / Ms : 0;
    BestJobsPerSec = std::max(BestJobsPerSec, JobsPerSec);
    std::string Label = 'w' + std::to_string(Service.effectiveWorkers());
    T.metric("service_jobs_per_sec_" + Label, JobsPerSec, "jobs/s");

    bool AllOk = true;
    for (const LitmusJobResult &R : Results)
      AllOk = AllOk && R.ok();
    T.check("all corpus jobs ok (" + Label + ")", true, AllOk);

    std::string Fp = fingerprintAll(Results);
    if (Reference.empty())
      Reference = Fp;
    else
      T.check("batch results identical to 1-worker run (" + Label + ")",
              true, Fp == Reference);
  }
  T.metric("service_jobs_per_sec", BestJobsPerSec, "jobs/s");

  // Large-program leg: the 65+-event corpus, served through the dynamic
  // relation tier with real verdicts. Same contract as the small corpus —
  // every job ok, byte-identical across worker counts — plus the
  // `large_program_jobs_per_sec` floor gated by tools/perf_trend.py.
  {
    std::vector<LitmusJob> LargeJobs = largeCorpusJobs();
    { LitmusService Warm; Warm.run(LargeJobs); } // warm-up
    double BestLarge = 0;
    std::string LargeReference;
    for (unsigned Workers : WorkerCounts) {
      ServiceConfig Cfg;
      Cfg.Workers = Workers;
      Cfg.CacheVerdicts = false;
      LitmusService Service(Cfg);
      std::vector<LitmusJobResult> Results;
      double Ms = timedMs([&] { Results = Service.run(LargeJobs); });
      if (Ms > 0)
        BestLarge = std::max(BestLarge, 1000.0 * LargeJobs.size() / Ms);
      std::string Label = 'w' + std::to_string(Service.effectiveWorkers());
      bool AllOk = true;
      for (const LitmusJobResult &R : Results)
        AllOk = AllOk && R.ok();
      T.check("all 65+-event corpus jobs ok (" + Label + ")", true, AllOk);
      std::string Fp = fingerprintAll(Results);
      if (LargeReference.empty())
        LargeReference = Fp;
      else
        T.check("large batch identical to 1-worker run (" + Label + ")",
                true, Fp == LargeReference);
    }
    T.metric("large_program_jobs_per_sec", BestLarge, "jobs/s");
  }

  // Error isolation: one too-large and one malformed job ride along with a
  // good one; the batch completes with per-job statuses. "Too large"
  // means beyond the relation cap (Relation::MaxSize events).
  {
    std::string TooLarge = "name big\nbuffer 64\nthread\n";
    for (unsigned I = 0; I < 1100; ++I)
      TooLarge += "  store u32 " + std::to_string(4 * (I % 8)) + " = 1\n";
    std::vector<LitmusJob> Mixed;
    Mixed.push_back({"big", TooLarge, "revised", 1});
    Mixed.push_back({"bad", "thread\n  flurb\n", "revised", 1});
    Mixed.push_back(Jobs[0]);
    ServiceConfig Cfg;
    Cfg.Workers = 2;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results = Service.run(Mixed);
    T.check("too-large job fails with status too-large", true,
            Results[0].Status == JobStatus::TooLarge);
    T.check("malformed job fails with status parse-error", true,
            Results[1].Status == JobStatus::ParseError);
    T.check("good job unaffected by failing neighbours", true,
            Results[2].ok());
  }

  // Cache: resubmitting the corpus hits for every job.
  {
    LitmusService Service;
    Service.run(Jobs);
    Service.run(Jobs);
    LitmusService::CacheStats Stats = Service.cacheStats();
    T.check("resubmitted corpus served from the verdict cache", true,
            Stats.Hits >= Jobs.size() && Stats.Misses <= Jobs.size());
    T.metric("cache_hits", static_cast<double>(Stats.Hits));
  }

  return T.finish();
}
