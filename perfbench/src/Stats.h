//===- perfbench/src/Stats.h - Percentiles from raw client samples -------===//
///
/// \file
/// Latency percentiles for the benchmark, computed from the raw per-job
/// samples each client records (never from obs::LatencyHistogram, whose
/// bucket upper bounds can print a percentile above the sampled maximum).
///
/// The rule is nearest-rank: the P-th percentile of N sorted samples is the
/// sample at 1-based rank ceil(P * N / 100), so it is always one of the
/// samples and never above the maximum. A percentile is reported only when
/// at least MinBeyond samples lie strictly above its rank; a tail read off
/// fewer samples is one or two outliers, not a percentile. With
/// MinBeyond = 10 that makes p50 need 20 samples, p90 100 and p99 1000.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported percentile's rank.
constexpr size_t MinBeyond = 10;

/// 1-based nearest rank of the \p Pct-th percentile (1..100) of \p N
/// samples: ceil(Pct * N / 100), in integers so no rounding moves it.
inline size_t nearestRank(unsigned Pct, size_t N) {
  return (static_cast<size_t>(Pct) * N + 99) / 100;
}

/// The fewest samples for which the \p Pct-th percentile is reportable.
inline size_t minSamplesFor(unsigned Pct) {
  size_t N = 1;
  while (N - nearestRank(Pct, N) < MinBeyond)
    ++N;
  return N;
}

/// One reported percentile: its value and the sample count it came from.
struct Percentile {
  double Value = 0;
  size_t Samples = 0;
};

/// \returns the \p Pct-th nearest-rank percentile of \p Sorted (ascending),
/// or std::nullopt when fewer than MinBeyond samples lie beyond its rank.
inline std::optional<Percentile> percentile(const std::vector<double> &Sorted,
                                            unsigned Pct) {
  size_t N = Sorted.size();
  if (N == 0 || Pct == 0 || Pct > 100)
    return std::nullopt;
  size_t Rank = nearestRank(Pct, N);
  if (N - Rank < MinBeyond)
    return std::nullopt;
  return Percentile{Sorted[Rank - 1], N};
}

/// Median of an unsorted list (mean of the middle pair for even sizes); the
/// aggregate for repeated set-up phases, not a latency percentile.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

/// One client's raw latency samples, in a buffer allocated and touched up
/// front: the benchmark's own bookkeeping then adds the same memory to the
/// peak RSS however many jobs a run completes. Past its capacity the buffer
/// keeps a uniform random subset of everything added (reservoir sampling).
class SampleBuffer {
public:
  SampleBuffer(size_t Capacity, uint64_t Seed) : Buf(Capacity), Rng(Seed) {}

  void add(double Ms) {
    if (Seen < Buf.size()) {
      Buf[Seen] = static_cast<float>(Ms);
    } else {
      uint64_t J = Rng() % (Seen + 1);
      if (J < Buf.size())
        Buf[J] = static_cast<float>(Ms);
    }
    ++Seen;
  }
  /// Appends the retained samples to \p Out.
  void appendTo(std::vector<double> &Out) const {
    size_t N = std::min<uint64_t>(Seen, Buf.size());
    Out.insert(Out.end(), Buf.begin(), Buf.begin() + N);
  }

private:
  std::vector<float> Buf;
  std::mt19937_64 Rng;
  uint64_t Seen = 0;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
