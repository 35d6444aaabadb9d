//===- engine/ExecutionEngine.h - Unified enumeration core ----------------===//
///
/// \file
/// The single pluggable enumeration core behind every frontend. All of the
/// paper's results reduce to the same computational kernel — enumerate
/// candidate executions, derive relations, check axioms — which the seed
/// implemented three times with divergent generate-then-filter loops. The
/// engine owns that kernel once:
///
///   - the candidate space: control-flow paths × reads-byte-from
///     justifications (× coherence orders on the ARMv8 and target sides),
///     enumerated by one driver for the JavaScript, ARMv8 and target event
///     languages. Each language supplies its bases and its justifier; one
///     twin sleep-set helper serves the JS and target justifiers;
///   - incremental pruning: the model's tot-independent axioms are checked
///     on partial candidates the moment each read's justification
///     completes, cutting whole subtrees before the expensive
///     linear-extension search (derived relations are memoized on the
///     CandidateExecution, so the partial checks share closures). The
///     ARMv8 justifier checks armRefutedForEveryCo the same way and reads
///     each coherence granule from one writer;
///   - sharded multi-threaded enumeration: the path × first-justification
///     space is split into work items executed by a small thread pool;
///     per-item results and counters are merged in item order, so the
///     outcome of an enumeration is deterministic regardless of scheduling.
///
/// Frontends are thin adapters: exec/Enumerator, armv8/ArmEnumerator,
/// search/SkeletonSearch, flatsim/FlatSim and unisize/Reduction all route
/// through this class, and new backends plug in as MemoryModel
/// implementations.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ENGINE_EXECUTIONENGINE_H
#define JSMM_ENGINE_EXECUTIONENGINE_H

#include "armv8/ArmEnumerator.h"
#include "engine/MemoryModel.h"
#include "engine/TargetModel.h"
#include "exec/Enumerator.h"

#include <functional>
#include <optional>
#include <string>

namespace jsmm {

/// Tuning knobs of the engine.
struct EngineConfig {
  /// Worker threads for whole-space enumerations (enumerate()). 0 means
  /// one worker per hardware thread. Early-stopping visitor walks
  /// (forEachCandidate and friends) are always sequential, because their
  /// visitation order is part of the API.
  unsigned Threads = 1;
  /// Incremental pruning of justification subtrees via the model's
  /// monotone partial-candidate admission check. Turning this off restores
  /// the seed's generate-then-filter behaviour (used as the golden
  /// reference and the benchmark baseline).
  bool Prune = true;
  /// Route even ≤64-event programs through the heap-backed DynRelation
  /// tier in the outcome-level entry points. Only for the
  /// golden-equivalence tests and the `speedup_smallpath_x` benchmark —
  /// it exists to prove the two tiers agree and to measure what the
  /// inline fast path buys; never enable it in production configurations.
  bool ForceDynRelation = false;
  /// Equivalence-aware enumeration in the outcome-level entry points
  /// (enumerateOutcomes for programs and compiled targets): thread/location
  /// symmetry reduction plus sleep sets over rf choices, with outcomes
  /// relabelled back to the full verdict table. The allowed-outcome set is
  /// identical to the unreduced run; CandidatesConsidered/ValidCandidates
  /// drop by design (that is the point). Off by default; the
  /// witness-carrying entry points (enumerate / scDrf / forEach*) always
  /// enumerate the full space because their per-candidate visitation order
  /// and witnesses are part of the API.
  bool Reduction = false;
  /// Static DRF-SC fast path in the outcome-level entry points: when
  /// analysis::classify() certifies the program statically data-race-free
  /// (every cross-thread conflicting access pair is SeqCst on the
  /// identical range), the verdict is served by a single SC interleaving
  /// enumeration under Tier "static" — the SC-DRF theorem (§3.2/Thm 6.1)
  /// plus the Thm 6.3 compilation results pin the SC table as the answer
  /// on every backend, and the equality is asserted against full
  /// enumeration by the static-vs-dynamic differential tests. When the
  /// certificate does not hold, the same value analysis
  /// (analysis::analyzeValues) prunes the full walk instead: writer
  /// choices outside a read's static may-rf candidate set (or
  /// contradicting the path's register constraints) are skipped, and path
  /// combinations with statically-contradicted branch constraints are
  /// dropped — counted by EngineStats::StaticRfPruned / StaticPathsPruned
  /// with verdict tables unchanged (static_values_test pins equality). Off
  /// by default like Reduction; on at the CLI/service front doors, where
  /// --no-static restores the full walk. The witness-carrying entry
  /// points (enumerate / scDrf / forEach*) never use the analysis.
  bool StaticFastPath = false;

  static EngineConfig sequential() { return {1, true}; }
  static EngineConfig seedCompatible() { return {1, false}; }
};

/// Effort counters of the most recent enumeration-style call (enumerate,
/// scDrf, forEachAdmittedCandidate) on an engine; each call resets them.
struct EngineStats {
  uint64_t WorkItems = 0;       ///< shards the space was split into
  uint64_t PrunedSubtrees = 0;  ///< justification subtrees cut by pruning
  /// Justification subtrees skipped by the equivalence-aware reduction
  /// (sleep sets over rf choices); 0 unless EngineConfig::Reduction.
  uint64_t SleptBranches = 0;
  /// Writer choices skipped because they fall outside a read's static
  /// may-rf candidate set (analysis::StaticValues) or contradict the
  /// path's register constraints; 0 unless EngineConfig::StaticFastPath.
  /// Deterministic across thread counts, like the other counters.
  uint64_t StaticRfPruned = 0;
  /// Control-flow path combinations dropped because a branch constraint
  /// contradicts a constant read on the path (StaticValues::pathFeasible);
  /// 0 unless EngineConfig::StaticFastPath.
  uint64_t StaticPathsPruned = 0;
};

/// Capacity-agnostic enumeration result: the allowed outcome set plus the
/// effort counters, without per-outcome witness executions (whose relation
/// flavour depends on the tier that served the program). The return type
/// of the enumerateOutcomes() entry points, and the column type of the
/// differential verdict tables.
struct OutcomeSummary {
  std::vector<Outcome> Allowed; ///< sorted (Outcome's operator<)
  uint64_t CandidatesConsidered = 0;
  /// Valid (JS) / consistent (target) candidates counted by the tier.
  uint64_t ValidCandidates = 0;
  /// The relation tier that served the program: "inline" (≤64 events) or
  /// "dyn" (heap DynRelation). Filled by the enumerateOutcomes() doors.
  std::string Tier;
  /// The tot solver the run dispatched to (a brute request past 256
  /// events is answered by propagation).
  SolverKind SolverUsed = SolverKind::Propagate;

  bool allows(const Outcome &O) const;
  std::vector<std::string> outcomeStrings() const;
};

/// The unified execution-enumeration engine.
class ExecutionEngine {
public:
  ExecutionEngine() = default;
  explicit ExecutionEngine(EngineConfig Cfg) : Cfg(Cfg) {}

  const EngineConfig &config() const { return Cfg; }
  /// \returns the worker count actually used (resolves Threads == 0).
  unsigned effectiveThreads() const;

  // --- Capacity ----------------------------------------------------------
  //
  // The relation layer has two tiers: the inline single-word Relation
  // (≤ 64 events, every fast path) and the heap-backed DynRelation
  // (≤ DynRelation::MaxSize events), which the outcome-level entry points
  // select automatically per program. capacityError() reports against the
  // dynamic cap — the largest program the engine can serve at all — with a
  // "program too large (N events > 1024)" diagnostic naming
  // DynRelation::MaxSize. The propagation tot solver answers every size
  // within that cap. The witness-carrying entry points (enumerate / scDrf /
  // forEach*Candidate) return Relation-typed executions and therefore stay
  // on the fixed tier; they throw a CapacityError naming the 64-event
  // bound for larger programs, and enumerateOutcomes() is the size-agnostic
  // door. Every enumeration
  // entry point performs its own check and throws CapacityError (a
  // std::length_error) on failure — in release builds a too-large program
  // is a loud error, never the silent out-of-range bit-shifts the
  // debug-only asserts used to allow. Frontends that accept user input
  // (the litmus parser, jsmm-run, the batch service) call these up front
  // to turn the condition into a structured error instead of an exception.

  /// \returns the diagnostic for \p P against the dynamic serving cap
  /// (DynRelation::MaxSize), or std::nullopt if some tier fits it. The
  /// ArmProgram overload still checks the fixed 64-event tier: the
  /// mixed-size ARMv8 model has no dynamic backend yet (see ROADMAP). The
  /// UniProgram overload bounds uniAllowedOutcomes, the uni-js reference.
  static std::optional<std::string> capacityError(const Program &P);
  static std::optional<std::string> capacityError(const ArmProgram &P);
  static std::optional<std::string> capacityError(const CompiledTarget &CT);
  static std::optional<std::string> capacityError(const UniProgram &P);

  /// \returns the fixed-tier (64-event) diagnostic for \p P, or
  /// std::nullopt if the witness-carrying entry points can serve it.
  static std::optional<std::string> fixedCapacityError(const Program &P);
  static std::optional<std::string>
  fixedCapacityError(const CompiledTarget &CT);

  // --- JavaScript frontend -----------------------------------------------

  /// Enumerates the outcomes of \p P allowed by \p M, sharded across the
  /// configured threads, with incremental pruning when enabled. The
  /// allowed-outcome set and CandidatesConsidered are identical for every
  /// thread count; ValidCandidates may differ in sharded mode because
  /// outcome deduplication (which gates the validity check) is per work
  /// item rather than global.
  EnumerationResult enumerate(const Program &P, const JsModel &M) const;

  /// Outcome-level enumeration for either capacity tier: the allowed
  /// outcome set (sorted), without witnesses. Identical outcomes and
  /// counters to enumerate() on ≤64-event programs (it is the same
  /// templated core, instantiated on Relation there and on DynRelation for
  /// larger programs). Throws CapacityError only past
  /// DynRelation::MaxSize events.
  OutcomeSummary enumerateOutcomes(const Program &P, const JsModel &M) const;

  /// Checks the SC-DRF property of \p P under \p M (sequential, early
  /// stopping).
  ScDrfReport scDrf(const Program &P, const JsModel &M) const;

  /// Invokes \p Visit on every well-formed candidate execution of \p P
  /// with its outcome — the complete, unpruned space, in deterministic
  /// order. \p Visit returns false to stop early; \returns false if
  /// stopped.
  bool forEachCandidate(
      const Program &P,
      const std::function<bool(const CandidateExecution &, const Outcome &)>
          &Visit) const;

  /// As forEachCandidate, but prunes subtrees \p M cannot admit (every
  /// visited candidate is still complete and well-formed; candidates whose
  /// prefixes violate tot-independent axioms are skipped).
  bool forEachAdmittedCandidate(
      const Program &P, const JsModel &M,
      const std::function<bool(const CandidateExecution &, const Outcome &)>
          &Visit) const;

  // --- ARMv8 frontend ----------------------------------------------------

  /// Enumerates the outcomes of \p P consistent under \p M, sharded across
  /// the configured threads. With EngineConfig::Prune, reads that tear a
  /// coherence granule and rbf prefixes armRefutedForEveryCo refutes are
  /// cut; both are inconsistent under every co, so the outcomes, their
  /// first witnesses and ConsistentCandidates equal the unpruned walk.
  ArmEnumerationResult enumerate(const ArmProgram &P,
                                 const Armv8Model &M) const;

  /// Invokes \p Visit once per control-flow unfolding with the
  /// materialised skeleton (events, po, dependencies; reads unjustified).
  bool forEachSkeleton(
      const ArmProgram &P,
      const std::function<bool(const ArmSkeleton &)> &Visit) const;

  /// Invokes \p Visit on every well-formed ARMv8 candidate (rbf and co
  /// complete; consistency not yet checked) with its outcome.
  bool forEachArmCandidate(
      const ArmProgram &P,
      const std::function<bool(const ArmExecution &, const Outcome &)>
          &Visit) const;

  // --- Target-architecture frontend (Thm 6.3 backends) -------------------

  /// Enumerates the outcomes of the compiled program \p CT consistent
  /// under the target backend \p M, sharded across the configured threads,
  /// with incremental po-loc ∪ rf pruning when enabled. The
  /// allowed-outcome set and CandidatesConsidered are identical for every
  /// thread count (per-item results merged in item order);
  /// ConsistentCandidates may differ in sharded mode because outcome
  /// deduplication (which gates the consistency check) is per work item
  /// rather than global — the same caveat as the JS enumerate().
  TargetEnumerationResult enumerate(const CompiledTarget &CT,
                                    const TargetModel &M) const;

  /// Outcome-level target enumeration for either capacity tier; see the
  /// JavaScript enumerateOutcomes overload for the contract.
  OutcomeSummary enumerateOutcomes(const CompiledTarget &CT,
                                   const TargetModel &M) const;

  /// Invokes \p Visit on every well-formed execution of \p CT (rf and
  /// per-location coherence chosen; consistency not yet checked) with its
  /// outcome, in deterministic order. \p Visit returns false to stop
  /// early; \returns false if stopped.
  bool forEachTargetCandidate(
      const CompiledTarget &CT,
      const std::function<bool(const TargetExecution &, const Outcome &)>
          &Visit) const;

  // --- Skeleton-search support -------------------------------------------

  /// Joint single-byte rbf justification of a JS/ARM twin pair sharing
  /// events one-to-one (the §5.1 compilation scheme): enumerates one
  /// writer per read, mirroring every choice into both executions, and
  /// invokes \p Visit on each complete justification. Reads must be
  /// single-byte. \p Visit returns false to stop; \returns false if
  /// stopped.
  static bool forEachTwinJustification(
      CandidateExecution &Js, ArmExecution &Arm,
      const std::function<bool(const CandidateExecution &,
                               const ArmExecution &)> &Visit);

  /// Effort counters of the most recent enumerate() call on this engine.
  /// Publication discipline: worker threads only ever write per-item
  /// shards (merged on the calling thread after the join); every entry
  /// point accumulates into a function-local EngineStats and assigns it
  /// here exactly once, after all workers have finished. So for a fixed
  /// workload the counters are byte-identical across Threads settings
  /// (pinned by engine_test) and the member is never touched while
  /// workers run (pinned by the ThreadSanitizer CI job).
  mutable EngineStats Stats;

private:
  EngineConfig Cfg;
};

} // namespace jsmm

#endif // JSMM_ENGINE_EXECUTIONENGINE_H
