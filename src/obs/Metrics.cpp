//===- obs/Metrics.cpp - Thread-safe metrics registry ---------------------===//

#include "obs/Metrics.h"

#include <algorithm>

using namespace jsmm;
using namespace jsmm::obs;

unsigned LatencyHistogram::bucketOf(uint64_t Micros) {
  unsigned B = 0;
  while (B + 1 < NumBuckets && Micros > bucketUpperBoundMicros(B))
    ++B;
  return B;
}

uint64_t LatencyHistogram::bucketUpperBoundMicros(unsigned Bucket) {
  return uint64_t(1) << Bucket;
}

void LatencyHistogram::recordMicros(uint64_t Micros) {
  Buckets[bucketOf(Micros)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  SumMicros.fetch_add(Micros, std::memory_order_relaxed);
  uint64_t Prev = Max.load(std::memory_order_relaxed);
  while (Prev < Micros &&
         !Max.compare_exchange_weak(Prev, Micros, std::memory_order_relaxed))
    ;
}

double LatencyHistogram::meanMicros() const {
  uint64_t N = count();
  if (!N)
    return 0.0;
  return static_cast<double>(SumMicros.load(std::memory_order_relaxed)) /
         static_cast<double>(N);
}

uint64_t LatencyHistogram::percentileMicros(double P) const {
  uint64_t N = count();
  if (!N)
    return 0;
  // Rank of the requested sample, 1-based: ceil(P/100 * N), clamped.
  uint64_t Rank = static_cast<uint64_t>(P / 100.0 * static_cast<double>(N));
  if (static_cast<double>(Rank) * 100.0 < P * static_cast<double>(N))
    ++Rank;
  if (Rank < 1)
    Rank = 1;
  if (Rank > N)
    Rank = N;
  // A bucket's upper bound can exceed every recorded sample; no
  // percentile may report more than the maximum.
  uint64_t Cumulative = 0;
  for (unsigned B = 0; B < NumBuckets; ++B) {
    Cumulative += Buckets[B].load(std::memory_order_relaxed);
    if (Cumulative >= Rank)
      return std::min(bucketUpperBoundMicros(B), maxMicros());
  }
  return std::min(bucketUpperBoundMicros(NumBuckets - 1), maxMicros());
}

JsonValue LatencyHistogram::toJson() const {
  JsonValue O = JsonValue::object();
  O.set("count", JsonValue(count()));
  O.set("mean_us", JsonValue(meanMicros()));
  O.set("p50_us", JsonValue(percentileMicros(50)));
  O.set("p90_us", JsonValue(percentileMicros(90)));
  O.set("p99_us", JsonValue(percentileMicros(99)));
  O.set("max_us", JsonValue(maxMicros()));
  return O;
}

void LatencyHistogram::reset() {
  for (std::atomic<uint64_t> &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  SumMicros.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

Counter &MetricsRegistry::counter(const std::string &Name, MetricClass C) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(Name, std::pair(std::make_unique<Counter>(), C))
             .first;
  return *It->second.first;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(Name, std::make_unique<Gauge>()).first;
  return *It->second;
}

LatencyHistogram &MetricsRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(Name, std::make_unique<LatencyHistogram>()).first;
  return *It->second;
}

JsonValue MetricsRegistry::countersJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonValue O = JsonValue::object();
  for (const auto &[Name, Entry] : Counters)
    if (Entry.second == MetricClass::Deterministic)
      O.set(Name, JsonValue(Entry.first->value()));
  return O;
}

JsonValue MetricsRegistry::statsJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonValue O = JsonValue::object();
  for (const auto &[Name, Entry] : Counters)
    if (Entry.second == MetricClass::Runtime)
      O.set(Name, JsonValue(Entry.first->value()));
  for (const auto &[Name, G] : Gauges)
    O.set(Name, JsonValue(G->value()));
  return O;
}

JsonValue MetricsRegistry::latencyJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonValue O = JsonValue::object();
  for (const auto &[Name, H] : Histograms)
    O.set(Name, H->toJson());
  return O;
}

JsonValue MetricsRegistry::toJson() const {
  JsonValue O = JsonValue::object();
  O.set("counters", countersJson());
  O.set("stats", statsJson());
  O.set("latency", latencyJson());
  return O;
}

void MetricsRegistry::resetValues() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, Entry] : Counters)
    Entry.first->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}
