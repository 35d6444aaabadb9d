//===- perfbench/src/Workloads.h - Benchmark inputs and references -------===//
///
/// \file
/// The four workloads of the benchmark, built from a seed, and the
/// references every job's answer is checked against:
///
///   - corpus:   the built-in 17-program differential corpus, checked
///               against the golden weak-outcome verdicts and the files'
///               allow/forbid lines;
///   - gen-racy: seeded, generated, racy mixed-size programs and a fixed
///               memory anchor, each as an `original` and a `revised` job,
///               checked against the exhaustive engine configuration;
///   - large:    the 65+-event corpus plus seeded racy wide programs (a
///               racy core padded with filler writer threads), checked
///               against golden verdicts and the exhaustive table of the
///               core alone;
///   - search:   a fixed sweep of bounded §5 searches, checked against the
///               paper's answers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "search/SkeletonSearch.h"
#include "service/LitmusService.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { Corpus, GenRacy, Large, Search };

/// \returns the workload named \p Name ("corpus", "gen-racy", "large",
/// "search"), or std::nullopt.
std::optional<Workload> workloadByName(const std::string &Name);

/// Backend columns -> sorted allowed-outcome strings (a verdict table).
using Table = std::map<std::string, std::vector<std::string>>;

/// The reference one litmus job's result is checked against.
struct JobReference {
  /// Golden verdicts of the designated weak outcome per column (the rows
  /// tests/differential_test.cpp pins, copied into the fixture).
  std::string WeakOutcome;
  std::map<std::string, bool> WeakAllowed;
  /// The litmus file's allow/forbid lines (outcome, allowed), checked
  /// against the js-revised column.
  std::vector<std::pair<std::string, bool>> Expectations;
  /// Exhaustive-configuration columns. When non-empty, every column of
  /// the result must appear here with the identical outcome list.
  Table Columns;
  /// Columns the result must carry.
  std::vector<std::string> Required;
  /// Columns is filled after the timed phase (generated programs).
  bool Deferred = false;
};

/// One litmus job of a workload.
struct BenchJob {
  jsmm::LitmusJob Job;
  JobReference Ref;
};

enum class SearchKind { CompileCex, ScDrfCex, Bounded };

/// One bounded search of the search sweep and the paper's answer to it.
struct SearchJob {
  std::string Name;
  SearchKind Kind = SearchKind::CompileCex;
  jsmm::SearchConfig Cfg;
  bool ExpectFound = false; ///< a counter-example / construction failure
  unsigned ExpectEvents = 0; ///< when found: its size (0 = not checked)
  unsigned ExpectLocs = 0;
};

/// What one search returned, with its effort counters.
struct SearchAnswer {
  bool Found = false;
  unsigned Events = 0;
  unsigned Locs = 0;
  uint64_t Skeletons = 0;
  uint64_t RbfCandidates = 0;
  uint64_t ArmChecks = 0;
};

/// The inputs of one workload.
struct WorkloadInputs {
  std::vector<BenchJob> Jobs;        ///< litmus workloads
  std::vector<SearchJob> Searches;   ///< the search workload
  /// Jobs (or searches) of the warm-up round: a prefix of the list.
  size_t WarmupCount = 0;
  size_t size() const { return Jobs.empty() ? Searches.size() : Jobs.size(); }
};

/// Builds the inputs of \p W from \p Seed. \p FixtureDir holds
/// golden_verdicts.txt; throws std::runtime_error if it cannot be read.
WorkloadInputs makeInputs(Workload W, uint64_t Seed,
                          const std::string &FixtureDir);

/// Computes the exhaustive reference (EngineConfig::seedCompatible(), no
/// reduction, no static pruning, brute solver) of a deferred job.
void computeDeferredReference(BenchJob &J);

/// \returns "" when \p R matches \p Ref, else the first mismatch.
std::string checkResult(const jsmm::LitmusJobResult &R,
                        const JobReference &Ref);

/// For a reference whose Columns are the whole expected table (generated
/// programs): "" when \p Table, a tableBytes() form, is exactly that table.
std::string checkTableBytes(const std::string &Table, const JobReference &Ref);

/// The canonical byte form of a result's status and verdict tables.
std::string tableBytes(const jsmm::LitmusJobResult &R);

/// Runs one search through the search/SkeletonSearch.h entry points.
SearchAnswer runSearch(const SearchJob &S);
/// \returns "" when \p A is the paper's answer to \p S, else why not.
std::string checkSearch(const SearchAnswer &A, const SearchJob &S);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
