//===- perfbench/src/Tracing.h - Spans around the layer calls of a job ---===//
///
/// \file
/// The traced run's instrumentation, kept entirely in the benchmark's own
/// files: tracedCompute() re-assembles a job's verdict table by calling
/// each layer's public function in the order LitmusService::computeResult
/// calls them, recording a span (name, start, end, parent, job id) around
/// every call and the layer's effort counters beside it. The caller checks
/// that the table it assembles is byte-identical to the service's, so the
/// replica cannot drift from the service unnoticed.
///
/// Spans stay in memory (one log per client thread) and are written out
/// when the benchmark ends; a layer's self time is its span's duration
/// minus the durations of its child spans (children of one span run one
/// after another on the span's thread, so they never overlap).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include "Workloads.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span. Name points at a string literal.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< index into the same log, -1 for a root
  uint32_t Job = 0;    ///< the job's position in the workload's list
};

/// The spans of one client thread.
class SpanLog {
public:
  explicit SpanLog(std::chrono::steady_clock::time_point Epoch)
      : Epoch(Epoch) {}

  /// Opens a span as a child of the innermost open one. \returns its index.
  size_t open(const char *Name, uint32_t Job);
  void close(size_t Index);
  const std::vector<Span> &spans() const { return Spans; }

private:
  int64_t nowNs() const;

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> OpenStack;
};

/// RAII span around one layer call.
class SpanScope {
public:
  SpanScope(SpanLog &Log, const char *Name, uint32_t Job)
      : Log(Log), Index(Log.open(Name, Job)) {}
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  ~SpanScope() { Log.close(Index); }

private:
  SpanLog &Log;
  size_t Index;
};

/// Effort counters read at the layer boundaries of traced jobs.
struct LayerCounts {
  uint64_t DrfJobs = 0;
  uint64_t JsCandidates = 0;      ///< JS columns: candidates considered
  uint64_t JsValid = 0;           ///< JS columns: valid candidates
  uint64_t PrunedSubtrees = 0;    ///< JS columns (EngineStats)
  uint64_t SleptBranches = 0;     ///< JS columns (EngineStats)
  uint64_t StaticRfPruned = 0;    ///< every engine column (EngineStats)
  uint64_t StaticPathsPruned = 0; ///< every engine column (EngineStats)
  uint64_t DynColumns = 0;        ///< engine columns served by DynRelation
  uint64_t ArmCandidates = 0;
  uint64_t ArmConsistent = 0;
  uint64_t ArmOmitted = 0; ///< differential jobs without an armv8 column
  uint64_t TargetCandidates = 0;
  uint64_t SolverQueries = 0;
  uint64_t PropagateBranches = 0;
  uint64_t SatDecisions = 0;
  uint64_t SatConflicts = 0;
  uint64_t SatColumns = 0; ///< engine columns answered by the SAT tier
  uint64_t Skeletons = 0;
  uint64_t RbfCandidates = 0;
  uint64_t ArmChecks = 0;

  void add(const LayerCounts &O);
};

/// Assembles \p Job's result the way LitmusService::computeResult does,
/// through the layers' public functions, with a span around each call.
/// Covers the models the workloads submit: "differential", "original" and
/// "revised".
jsmm::LitmusJobResult tracedCompute(const jsmm::LitmusJob &Job, uint32_t Id,
                                    SpanLog &Log, LayerCounts &C);

/// Times one analysis::analyzeValues call on \p Job's program as a root
/// span of its own: the engine repeats that analysis inside every column
/// it serves, so the replica cannot wrap it in a span of its own.
void tracedValueAnalysis(const jsmm::LitmusJob &Job, uint32_t Id,
                         SpanLog &Log);

/// Runs one search with a span around the entry point.
SearchAnswer tracedSearch(const SearchJob &S, uint32_t Id, SpanLog &Log,
                          LayerCounts &C);

/// Self time per span name, summed over \p Logs, in nanoseconds.
std::map<std::string, int64_t> selfTimes(const std::vector<const SpanLog *> &Logs);

/// Writes every span of \p Logs as one JSON object per line to \p Path.
/// \returns false if the file cannot be written.
bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs);

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
