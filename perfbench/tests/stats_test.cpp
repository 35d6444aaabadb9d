//===- perfbench/tests/stats_test.cpp - Percentile rule checks -----------===//
///
/// \file
/// Pins the nearest-rank rule and the minimum sample counts of Stats.h:
/// a percentile is always one of the samples (never above the maximum),
/// and it is reported only with at least ten samples beyond its rank.
/// Exits non-zero on the first failed check.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

} // namespace

int main() {
  // Nearest rank is ceil(P * N / 100).
  expect(nearestRank(50, 20) == 10, "p50 of 20 is rank 10");
  expect(nearestRank(50, 21) == 11, "p50 of 21 is rank 11");
  expect(nearestRank(90, 100) == 90, "p90 of 100 is rank 90");
  expect(nearestRank(90, 101) == 91, "p90 of 101 is rank 91");
  expect(nearestRank(99, 1000) == 990, "p99 of 1000 is rank 990");
  expect(nearestRank(99, 1001) == 991, "p99 of 1001 is rank 991");
  expect(nearestRank(100, 7) == 7, "p100 is the maximum");

  // Ten samples beyond the rank: p50 needs 20, p90 100, p99 1000.
  expect(minSamplesFor(50) == 20, "p50 needs 20 samples");
  expect(minSamplesFor(90) == 100, "p90 needs 100 samples");
  expect(minSamplesFor(99) == 1000, "p99 needs 1000 samples");
  expect(!percentile(oneTo(19), 50), "no p50 from 19 samples");
  expect(!percentile(oneTo(99), 90), "no p90 from 99 samples");
  expect(!percentile(oneTo(999), 99), "no p99 from 999 samples");
  expect(!percentile({}, 50), "no percentile of nothing");
  expect(!percentile(oneTo(5000), 100), "no p100: nothing lies beyond it");

  // Values are samples, reported with their count, never above the max.
  std::optional<Percentile> P50 = percentile(oneTo(20), 50);
  expect(P50 && P50->Value == 10 && P50->Samples == 20, "p50 of 1..20 is 10");
  std::optional<Percentile> P99 = percentile(oneTo(1000), 99);
  expect(P99 && P99->Value == 990, "p99 of 1..1000 is 990");
  std::vector<double> Tail = oneTo(1000);
  Tail.back() = 152; // a maximum far below where a bucket bound would land
  std::sort(Tail.begin(), Tail.end());
  for (unsigned Pct : {50u, 90u, 99u}) {
    std::optional<Percentile> Q = percentile(Tail, Pct);
    expect(Q && Q->Value <= Tail.back(), "percentile never above the max");
  }

  expect(median({3, 1, 2}) == 2, "median of an odd list");
  expect(median({4, 1, 3, 2}) == 2.5, "median of an even list");

  if (Failures == 0)
    std::printf("perfbench_stats_test: all checks passed\n");
  return Failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
