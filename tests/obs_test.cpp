//===- tests/obs_test.cpp - Observability layer ---------------------------===//
//
// Covers the obs/ subsystem: histogram bucket geometry and percentile
// semantics, registry thread-safety under concurrent increments, the
// pinned trace-event JSONL schema, and the determinism contract — the
// registry's Deterministic counter section is byte-identical across
// service worker counts on the differential corpus.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include "service/LitmusService.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>
#include <vector>

using namespace jsmm;
using namespace jsmm::obs;

namespace {

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BucketGeometry) {
  // Bucket 0 holds [0, 1] µs; bucket I holds (2^(I-1), 2^I] µs.
  EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketOf(1), 0u);
  EXPECT_EQ(LatencyHistogram::bucketOf(2), 1u);
  EXPECT_EQ(LatencyHistogram::bucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucketOf(4), 2u);
  EXPECT_EQ(LatencyHistogram::bucketOf(5), 3u);
  EXPECT_EQ(LatencyHistogram::bucketOf(1024), 10u);
  EXPECT_EQ(LatencyHistogram::bucketOf(1025), 11u);
  // Everything past the last bucket's bound collapses into it.
  EXPECT_EQ(LatencyHistogram::bucketOf(~0ull),
            LatencyHistogram::NumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucketUpperBoundMicros(0), 1ull);
  EXPECT_EQ(LatencyHistogram::bucketUpperBoundMicros(10), 1024ull);
}

TEST(Histogram, PercentilesReportBucketUpperBounds) {
  LatencyHistogram H;
  for (int I = 0; I < 90; ++I)
    H.recordMicros(10); // bucket 4, upper bound 16
  for (int I = 0; I < 10; ++I)
    H.recordMicros(1000); // bucket 10, upper bound 1024, clamped to max
  EXPECT_EQ(H.count(), 100u);
  EXPECT_EQ(H.maxMicros(), 1000u);
  EXPECT_EQ(H.percentileMicros(50), 16u);
  EXPECT_EQ(H.percentileMicros(90), 16u);
  EXPECT_EQ(H.percentileMicros(99), 1000u);
  EXPECT_EQ(H.percentileMicros(100), 1000u);
  EXPECT_DOUBLE_EQ(H.meanMicros(), (90 * 10 + 10 * 1000) / 100.0);
}

TEST(Histogram, EmptyAndReset) {
  LatencyHistogram H;
  EXPECT_EQ(H.percentileMicros(99), 0u);
  EXPECT_EQ(H.count(), 0u);
  H.recordMicros(5);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxMicros(), 0u);
  EXPECT_EQ(H.percentileMicros(50), 0u);
}

TEST(Histogram, JsonShape) {
  LatencyHistogram H;
  H.recordMicros(3);
  JsonValue J = H.toJson();
  ASSERT_TRUE(J.isObject());
  for (const char *Key :
       {"count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"})
    EXPECT_NE(J.find(Key), nullptr) << Key;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(Registry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry R;
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 10000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&R, T] {
      // A shared counter, a per-thread counter (exercising create-on-
      // first-use under contention), and a shared histogram.
      for (unsigned I = 0; I < PerThread; ++I) {
        R.counter("shared").add(1);
        R.counter("thread." + std::to_string(T)).add(1);
        R.histogram("lat").recordMicros(I % 100);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(R.counter("shared").value(), uint64_t(Threads) * PerThread);
  for (unsigned T = 0; T < Threads; ++T)
    EXPECT_EQ(R.counter("thread." + std::to_string(T)).value(), PerThread);
  EXPECT_EQ(R.histogram("lat").count(), uint64_t(Threads) * PerThread);
}

TEST(Registry, CountersJsonIsDeterministicSectionOnly) {
  MetricsRegistry R;
  R.counter("det.a").add(2);
  R.counter("det.b").add(3);
  R.counter("runtime.c", MetricClass::Runtime).add(5);
  R.gauge("util").set(0.5);
  R.histogram("h").recordMicros(1);
  // Deterministic counters only, name-sorted.
  EXPECT_EQ(R.countersJson().toString(), "{\"det.a\":2,\"det.b\":3}");
  // Runtime counters and gauges render in the stats section instead.
  JsonValue Stats = R.statsJson();
  EXPECT_NE(Stats.find("runtime.c"), nullptr);
  EXPECT_NE(Stats.find("util"), nullptr);
  EXPECT_EQ(Stats.find("det.a"), nullptr);
  JsonValue Lat = R.latencyJson();
  EXPECT_NE(Lat.find("h"), nullptr);
}

TEST(Registry, ResetValuesKeepsReferences) {
  MetricsRegistry R;
  Counter &C = R.counter("c");
  C.add(7);
  R.resetValues();
  EXPECT_EQ(C.value(), 0u);
  C.add(1);
  EXPECT_EQ(R.counter("c").value(), 1u);
}

//===----------------------------------------------------------------------===//
// Trace schema
//===----------------------------------------------------------------------===//

const char *TraceMp = R"(name trace-mp
buffer 8
thread
  store u32 0 = 1
  store u32 4 = 1
thread
  r0 = load u32 4
  r1 = load u32 0
)";

/// All-SeqCst store buffering: statically DRF, so it covers the
/// drf-fastpath trace event.
const char *TraceSbSc = R"(name trace-sb-sc
buffer 8
thread
  store.sc u32 0 = 1
  r0 = load.sc u32 4
thread
  store.sc u32 4 = 1
  r0 = load.sc u32 0
)";

/// Ordered member names of one parsed trace line.
std::vector<std::string> keysOf(const JsonValue &V) {
  std::vector<std::string> Keys;
  for (const auto &[K, Val] : V.members()) {
    (void)Val;
    Keys.push_back(K);
  }
  return Keys;
}

TEST(Trace, JsonlSchemaGolden) {
  std::ostringstream Out;
  TraceSink Sink(Out);
  setTrace(&Sink);
  LitmusService Service(ServiceConfig::sequential());
  LitmusJob Job;
  Job.Name = "trace-mp";
  Job.Litmus = TraceMp;
  Job.Model = "revised";
  // Two identical jobs: the second is served by the cache, covering the
  // cache-hit event. The statically-DRF third job covers drf-fastpath.
  LitmusJob DrfJob;
  DrfJob.Name = "trace-sb-sc";
  DrfJob.Litmus = TraceSbSc;
  DrfJob.Model = "revised";
  Service.run({Job, Job, DrfJob});
  setTrace(nullptr);

  std::map<std::string, std::vector<std::string>> SchemaOf;
  std::istringstream In(Out.str());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    std::string Error;
    std::optional<JsonValue> V = parseJson(Line, &Error);
    ASSERT_TRUE(V) << Error << ": " << Line;
    ASSERT_TRUE(V->isObject());
    const JsonValue *Ev = V->find("ev");
    ASSERT_NE(Ev, nullptr);
    // Every event carries the relative timestamp.
    const JsonValue *T = V->find("t_us");
    ASSERT_NE(T, nullptr);
    EXPECT_TRUE(T->isNumber());
    // The first line of each event type pins the schema; later lines must
    // agree (key sets and order are deterministic, values are not).
    auto [It, Inserted] = SchemaOf.emplace(Ev->asString(), keysOf(*V));
    if (!Inserted) {
      EXPECT_EQ(It->second, keysOf(*V)) << Line;
    }
  }
  EXPECT_EQ(Lines, Sink.eventsEmitted());

  // The pinned schemas (see obs/Trace.h). "t_us"/"wall_us" are wall-clock
  // fields, pinned by presence and type only — never by value.
  using KeyList = std::vector<std::string>;
  EXPECT_EQ(SchemaOf.at("job-start"),
            (KeyList{"ev", "job", "name", "model", "t_us"}));
  EXPECT_EQ(SchemaOf.at("job-end"),
            (KeyList{"ev", "job", "name", "status", "cached", "wall_us",
                     "t_us"}));
  EXPECT_EQ(SchemaOf.at("tier-select"),
            (KeyList{"ev", "entry", "events", "tier", "solver", "t_us"}));
  EXPECT_EQ(SchemaOf.at("drf-fastpath"),
            (KeyList{"ev", "entry", "events", "states", "outcomes", "t_us"}));
  EXPECT_EQ(SchemaOf.at("cache-miss"), (KeyList{"ev", "name", "t_us"}));
  EXPECT_EQ(SchemaOf.at("cache-hit"), (KeyList{"ev", "name", "t_us"}));
}

//===----------------------------------------------------------------------===//
// Counter determinism across worker counts
//===----------------------------------------------------------------------===//

TEST(Determinism, CountersByteIdenticalAcrossWorkers) {
  // The registry's Deterministic section must be byte-identical for every
  // worker count on a fixed workload — the property the run-summary
  // golden comparisons and tools/obs_check.py rely on.
  setMetricsEnabled(true);
  std::vector<std::string> Sections;
  for (unsigned Workers : {1u, 2u, 4u}) {
    registry().resetValues();
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results =
        Service.run(differentialCorpusJobs());
    for (const LitmusJobResult &R : Results)
      EXPECT_TRUE(R.ok()) << R.Name << ": " << R.Error;
    Sections.push_back(registry().countersJson().toString());
  }
  setMetricsEnabled(false);
  registry().resetValues();
  ASSERT_EQ(Sections.size(), 3u);
  EXPECT_FALSE(Sections[0].empty());
  EXPECT_EQ(Sections[0], Sections[1]);
  EXPECT_EQ(Sections[0], Sections[2]);
}

TEST(Determinism, PerJobSolverActivityIdenticalAcrossWorkers) {
  // Per-job attribution survives concurrency: a job's SolverActivity is a
  // function of the job, not of scheduling (cached results replay the
  // populating computation's counters).
  setMetricsEnabled(true);
  std::vector<std::vector<SolverActivity>> PerRun;
  for (unsigned Workers : {1u, 4u}) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results =
        Service.run(differentialCorpusJobs());
    std::vector<SolverActivity> Acts;
    for (const LitmusJobResult &R : Results) {
      EXPECT_TRUE(R.HasSolverStats) << R.Name;
      Acts.push_back(R.Solver);
    }
    PerRun.push_back(std::move(Acts));
  }
  setMetricsEnabled(false);
  registry().resetValues();
  ASSERT_EQ(PerRun[0].size(), PerRun[1].size());
  for (size_t I = 0; I < PerRun[0].size(); ++I) {
    EXPECT_EQ(PerRun[0][I].Queries, PerRun[1][I].Queries) << I;
    EXPECT_EQ(PerRun[0][I].PropagateBranches,
              PerRun[1][I].PropagateBranches)
        << I;
    EXPECT_EQ(PerRun[0][I].PropagateForcedEdges,
              PerRun[1][I].PropagateForcedEdges)
        << I;
  }
}

} // namespace
