//===- search/SkeletonSearch.h - Counter-example search (Alloy substitute) ===//
///
/// \file
/// Bounded counter-example search over candidate-execution skeletons, the
/// C++ stand-in for the paper's Memalloy-style Alloy searches (§5):
///
///   - §5.1/5.2: find an execution pair (ExecJS, ExecARM), related by the
///     compilation translation, with ExecARM consistent in the mixed-size
///     ARMv8 model and ExecJS *dead*-invalid in JavaScript — a compilation
///     counter-example. With the original model this reproduces the Fig. 6
///     shape at 6 events / 2 byte locations.
///   - §5.3: with the revised model, verify no counter-example exists up to
///     the bound, and model-check the tot construction used by the Coq
///     proof.
///   - §5.4: find valid, data-race-free, non-sequentially-consistent
///     executions — SC-DRF counter-examples (Fig. 8 at 4 events / 1
///     location, in the original model).
///
/// A skeleton assigns each event a thread, a kind (write/read), a mode
/// (SeqCst/Unordered) and a single-byte location; writes write distinct
/// values; sequenced-before follows event order within each thread; the
/// Init event covers all locations. The JS and ARM sides share events
/// one-to-one through the §5.1 scheme (SC -> acquire/release, Un -> plain).
///
/// Skeletons that differ only by an interleaving of the same per-thread
/// sequences, an order of the threads or a renaming of the locations are
/// isomorphic, so the searches visit one canonical shape per class:
///   1. threads are non-decreasing along event order (each thread's
///      events are one contiguous block);
///   2. locations form a restricted-growth string (each event's location
///      is at most one above the largest used before it);
///   3. each thread block is at least as long as the next, and two blocks
///      of equal length are ordered by their (kind, mode) sequence.
/// Every class has a shape passing all three (stable-sort by thread,
/// reorder the blocks by rule 3's key, which ignores locations, then
/// rename locations by first use). Blocks that tie on rule 3's key but
/// differ in locations are not merged, so a few classes appear twice
/// (2-3% at 4-5 events).
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SEARCH_SKELETONSEARCH_H
#define JSMM_SEARCH_SKELETONSEARCH_H

#include "armv8/ArmModel.h"
#include "core/Validity.h"
#include "search/Deadness.h"

#include <functional>
#include <optional>

namespace jsmm {

/// Bounds and model configuration for the searches.
struct SearchConfig {
  unsigned MinEvents = 2;
  unsigned MaxEvents = 6; ///< access events, excluding Init
  unsigned MaxThreads = 2;
  unsigned NumLocs = 2;   ///< single-byte locations
  ModelSpec Js = ModelSpec::original();
  enum class DeadnessMode { None, Syntactic, Semantic } Deadness =
      DeadnessMode::Semantic;
  uint64_t MaxCandidates = 0; ///< rbf-complete candidate budget; 0 = no cap
  /// Order solver deciding the per-candidate validity/deadness questions
  /// (empty = process default).
  SolverConfig Solver;
  /// Worker threads sharding the shape outer loop of the searches
  /// (searchArmCompilationCex, searchScDrfCex, boundedCompilationCheck);
  /// 0 = one per hardware thread. In unbudgeted runs (MaxCandidates == 0)
  /// the search results are deterministic for every thread count — the hit
  /// the sequential enumeration would find first is returned. With a
  /// budget AND multiple workers, the cut-off point depends on scheduling,
  /// so which hit (if any) is found can vary; the effort counters in
  /// SearchStats are likewise exact only single-threaded when a budget or
  /// an early stop cuts the sweep short. forEachSkeletonCandidate itself
  /// always runs sequentially — its visitation order is part of the API.
  unsigned Threads = 1;

  /// Skip candidates in which some SeqCst read reads only Init bytes.
  /// Such candidates acquire an Init synchronizes-with edge (Fig. 3's
  /// special case), whose forced tot edges the paper's *syntactic*
  /// deadness criterion cannot certify — so the Alloy search of §5.2 never
  /// reports them. With the exact semantic criterion (affordable here)
  /// they surface as legitimate counter-examples at only 4 events; setting
  /// this flag reproduces the paper's 6-event minimum instead.
  bool ExcludeInitSynchronization = false;
};

/// A found counter-example.
struct SkeletonCex {
  CandidateExecution Js; ///< carries a tot for None/Syntactic modes
  ArmExecution Arm;      ///< a consistent coherence witness (compile search)
  unsigned NumEvents = 0;
  unsigned NumLocs = 0;
};

/// Search effort counters.
struct SearchStats {
  uint64_t Skeletons = 0; ///< canonical shapes visited (see file comment)
  uint64_t RbfCandidates = 0;
  uint64_t ArmConsistencyChecks = 0;
  bool BudgetExhausted = false;
};

/// Enumerates every rbf-complete skeleton candidate within the bounds,
/// presenting the JS execution (no tot) and its ARM twin (no coherence).
/// \p Visit returns false to stop. \returns false if stopped early.
bool forEachSkeletonCandidate(
    const SearchConfig &Cfg,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit,
    SearchStats *Stats = nullptr);

/// \returns true if some granule coherence order makes \p X consistent;
/// fills \p Witness (complete with co) if non-null.
bool armConsistentForSomeCo(const ArmExecution &X,
                            ArmExecution *Witness = nullptr);

/// \returns true if some tot makes \p CE *invalid* under \p Spec (used by
/// the naive search mode); fills \p TotOut if non-null. \p Solver selects
/// the order solver (empty = process default).
bool existsInvalidTot(const CandidateExecution &CE, ModelSpec Spec,
                      Relation *TotOut = nullptr,
                      SolverConfig Solver = SolverConfig());

/// §5.1/5.2: searches for a JS->ARMv8 compilation counter-example.
std::optional<SkeletonCex>
searchArmCompilationCex(const SearchConfig &Cfg, SearchStats *Stats = nullptr);

/// §5.4: searches for an SC-DRF counter-example (valid + race-free +
/// not sequentially consistent).
std::optional<SkeletonCex> searchScDrfCex(const SearchConfig &Cfg,
                                          SearchStats *Stats = nullptr);

/// §5.3: bounded verification that the tot construction witnesses JS
/// validity for every ARM-consistent execution within the bounds.
struct BoundedCompilationReport {
  uint64_t Skeletons = 0;
  uint64_t RbfCandidates = 0;
  uint64_t ArmConsistentExecutions = 0;
  uint64_t ConstructionFailures = 0;
  std::optional<SkeletonCex> FirstFailure;
  bool holds() const { return ConstructionFailures == 0; }
};
BoundedCompilationReport boundedCompilationCheck(const SearchConfig &Cfg);

} // namespace jsmm

#endif // JSMM_SEARCH_SKELETONSEARCH_H
