//===- obs/Metrics.h - Thread-safe metrics registry -----------------------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the observability layer: named counters, gauges and
/// fixed-bucket latency histograms behind a thread-safe registry. The
/// existing ad-hoc telemetry structs (EngineStats, SolverActivity, the
/// service's CacheStats) stay the per-call API; the registry is where
/// their values accumulate process-wide so the front doors can render one
/// machine-readable `run-summary` record (tools/jsmm_batch.cpp
/// --stats=json).
///
/// Determinism contract. Metrics come in two classes:
///
///   - Deterministic counters (MetricClass::Deterministic, the default):
///     pure functions of the work performed — candidates considered,
///     solver decisions, pruned subtrees. Their totals are byte-identical
///     across worker/thread counts (atomic sums are order-independent) and
///     are safe to pin in golden tests; countersJson() renders exactly
///     this class.
///   - Runtime metrics (MetricClass::Runtime counters, every gauge, every
///     histogram): scheduling- or clock-dependent — latencies, worker
///     utilization. They are excluded from golden comparisons by
///     construction: statsJson()/latencyJson() render them separately.
///
/// Histograms use power-of-two microsecond buckets (bucket I covers
/// (2^(I-1), 2^I] µs); percentiles report the upper bound of the bucket
/// the requested rank falls in, so a reported p99 is an over-estimate by
/// at most 2x — plenty for trend gates, and cheap enough to record from
/// hot paths (one atomic increment per sample).
///
/// Mutation is lock-free after creation (std::atomic fields); creation
/// takes the registry mutex once per name and returns a reference that
/// stays valid for the registry's lifetime, so call sites may cache it.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_OBS_METRICS_H
#define JSMM_OBS_METRICS_H

#include "support/Json.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace jsmm::obs {

/// See the file comment: Deterministic metrics are pinned by golden
/// tests, Runtime metrics are scheduling/clock-dependent and excluded.
enum class MetricClass : uint8_t { Deterministic, Runtime };

/// A monotonically increasing event count.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A last-write-wins instantaneous value (e.g. worker utilization).
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> V{0.0};
};

/// Fixed-bucket latency histogram over microseconds; see the file comment
/// for the bucket geometry and percentile semantics.
class LatencyHistogram {
public:
  /// Bucket 0 holds [0, 1] µs; bucket I holds (2^(I-1), 2^I] µs; the last
  /// bucket additionally absorbs everything larger (~134 s and up).
  static constexpr unsigned NumBuckets = 28;

  /// \returns the bucket index \p Micros falls in.
  static unsigned bucketOf(uint64_t Micros);
  /// \returns the upper bound (µs) reported for \p Bucket.
  static uint64_t bucketUpperBoundMicros(unsigned Bucket);

  void recordMicros(uint64_t Micros);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t maxMicros() const { return Max.load(std::memory_order_relaxed); }
  double meanMicros() const;
  /// \returns the upper bound of the bucket holding the \p P-th percentile
  /// sample (P in (0, 100]), clamped to maxMicros(); 0 when the histogram
  /// is empty.
  uint64_t percentileMicros(double P) const;

  /// {"count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"} — all
  /// timing-derived, so Runtime class by definition.
  JsonValue toJson() const;

  void reset();

private:
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> SumMicros{0};
  std::atomic<uint64_t> Max{0};
};

/// The named-metric registry. One process-wide instance lives behind
/// obs::registry() (obs/Obs.h); tests instantiate their own.
class MetricsRegistry {
public:
  /// \returns the counter named \p Name, creating it with \p C on first
  /// use (a later lookup with a different class keeps the original).
  Counter &counter(const std::string &Name,
                   MetricClass C = MetricClass::Deterministic);
  Gauge &gauge(const std::string &Name);
  LatencyHistogram &histogram(const std::string &Name);

  /// The Deterministic counters as a name-sorted JSON object — the
  /// byte-identical-across-worker-counts section of a run summary.
  JsonValue countersJson() const;
  /// Runtime counters and gauges, name-sorted. Not golden-comparable.
  JsonValue statsJson() const;
  /// Every histogram's summary, name-sorted. Not golden-comparable.
  JsonValue latencyJson() const;
  /// {"counters": ..., "stats": ..., "latency": ...}.
  JsonValue toJson() const;

  /// Zeroes every metric's value without invalidating references handed
  /// out by the accessors (tests reset between determinism runs).
  void resetValues();

private:
  mutable std::mutex Mu;
  std::map<std::string, std::pair<std::unique_ptr<Counter>, MetricClass>>
      Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> Histograms;
};

} // namespace jsmm::obs

#endif // JSMM_OBS_METRICS_H
