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
///     languages. Each language supplies its bases and its justifier;
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

namespace analysis {
struct StaticValues;
} // namespace analysis

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
  /// Selects nothing: every program runs on the one relation type
  /// (support/Relation.h). The field keeps its position because
  /// EngineConfig is filled in positionally elsewhere.
  bool ForceDynRelation = false;
  /// Equivalence-aware enumeration in enumerateOutcomes(Program, JsModel):
  /// rf sleep-set keys skip a writer choice whose every verdict input
  /// (byte value, static hb bits, tear-free count) equals an explored
  /// sibling's, on programs without SeqCst events or asw edges. The
  /// allowed-outcome set is identical to the unreduced run;
  /// CandidatesConsidered/ValidCandidates drop by design (that is the
  /// point). Off by default; the target door never reduces (its fr and co
  /// verdicts depend on the rf writer's identity), and the
  /// witness-carrying entry points (enumerate / scDrf / forEach*) always
  /// enumerate the full space because their per-candidate visitation order
  /// and witnesses are part of the API.
  bool Reduction = false;
  /// The static tier of the outcome-level entry points, driven by one
  /// value analysis of the litmus program (analysis::analyzeValues). When
  /// its classification certifies the program statically data-race-free
  /// (every cross-thread conflicting access pair is SeqCst on the
  /// identical range), the verdict is served by a single SC interleaving
  /// enumeration under Tier "static" — the SC-DRF theorem (§3.2/Thm 6.1)
  /// plus the Thm 6.3 compilation results pin the SC table as the answer
  /// on every backend, and the equality is asserted against full
  /// enumeration by the static-vs-dynamic differential tests. When the
  /// certificate does not hold, the same analysis prunes the full walk
  /// instead: writer choices outside a read's static may-rf candidate set
  /// (or contradicting the path's register constraints) are skipped, and
  /// path combinations with statically-contradicted branch constraints
  /// are dropped — counted by EngineStats::StaticRfPruned /
  /// StaticPathsPruned with verdict tables unchanged (static_values_test
  /// pins equality).
  ///
  /// The JavaScript door analyses the program itself unless the caller
  /// passes the analysis; the target door has no program to analyse and
  /// uses the static tier only when the caller passes the analysis of the
  /// source program the compiled form came from. Off by default like
  /// Reduction; on at the CLI/service front doors, which analyse each job
  /// once and hand the analysis to every column, and where --no-static
  /// restores the full walk. The witness-carrying entry points
  /// (enumerate / scDrf / forEach*) never use the analysis.
  bool StaticFastPath = false;

  static EngineConfig sequential() { return {1, true}; }
  static EngineConfig seedCompatible() { return {1, false}; }
};

/// Effort counters of the most recent enumeration-style call (enumerate,
/// enumerateOutcomes, scDrf, forEachAdmittedCandidate) on an engine; each
/// call resets them.
struct EngineStats {
  uint64_t WorkItems = 0;       ///< shards the space was split into
  uint64_t PrunedSubtrees = 0;  ///< justification subtrees cut by pruning
  /// Writer choices skipped by the rf sleep-set keys; 0 unless
  /// EngineConfig::Reduction.
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

/// Witness-free enumeration result: the allowed outcome set plus the
/// effort counters, without per-outcome witness executions. The return type
/// of the enumerateOutcomes() entry points, and the column type of the
/// differential verdict tables.
struct OutcomeSummary {
  std::vector<Outcome> Allowed; ///< sorted (Outcome's operator<)
  uint64_t CandidatesConsidered = 0;
  /// Valid (JS) / consistent (target) candidates.
  uint64_t ValidCandidates = 0;
  /// How the program was served: the full walk's relation row width,
  /// "inline" (≤64 events: one-word rows, stored inline) or "dyn" (rows of
  /// several words, on the heap), or "static" when the DRF fast path
  /// answered with the SC table. Filled by the enumerateOutcomes() doors.
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
  // Every door serves every program within Relation::MaxSize (1024)
  // events; the propagation tot solver answers every size within that
  // cap. capacityError() reports against it with a "program too large (N
  // events > 1024)" diagnostic. Every enumeration entry point performs its
  // own check and throws CapacityError (a std::length_error) on failure —
  // in release builds a too-large program is a loud error, never the
  // silent out-of-range bit-shifts the debug-only asserts used to allow.
  // Frontends that accept user input (the litmus parser, jsmm-run, the
  // batch service) call these up front to turn the condition into a
  // structured error instead of an exception.

  /// \returns the diagnostic for \p P against Relation::MaxSize, or
  /// std::nullopt if the engine can serve it. The ArmProgram overload
  /// checks the mixed-size ARMv8 model's own cap (ArmMaxEvents, 64 events).
  /// The UniProgram overload bounds uniAllowedOutcomes, the uni-js
  /// reference.
  static std::optional<std::string> capacityError(const Program &P);
  static std::optional<std::string> capacityError(const ArmProgram &P);
  static std::optional<std::string> capacityError(const CompiledTarget &CT);
  static std::optional<std::string> capacityError(const UniProgram &P);

  // --- JavaScript frontend -----------------------------------------------

  /// Enumerates the outcomes of \p P allowed by \p M, sharded across the
  /// configured threads, with incremental pruning when enabled. The
  /// allowed-outcome set and CandidatesConsidered are identical for every
  /// thread count; ValidCandidates may differ in sharded mode because
  /// outcome deduplication (which gates the validity check) is per work
  /// item rather than global.
  EnumerationResult enumerate(const Program &P, const JsModel &M) const;

  /// Outcome-level enumeration: the allowed outcome set (sorted), without
  /// witnesses. Without the static tier, identical outcomes and counters
  /// to enumerate() (it is the same core). Throws CapacityError past
  /// Relation::MaxSize events. Under EngineConfig::StaticFastPath the
  /// static tier reads \p SV, which must be analysis::analyzeValues(P);
  /// with \p SV null the door computes that analysis itself. Without
  /// StaticFastPath \p SV is ignored.
  OutcomeSummary enumerateOutcomes(const Program &P, const JsModel &M,
                                   const analysis::StaticValues *SV =
                                       nullptr) const;

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
  //
  // Every target door is one rf × co walk (ARCHITECTURE.md, "The
  // engine"). compileUni maps each source access to exactly one access
  // and only adds fences, so the compiled forms of one program share
  // their writers per read, their po-loc ∪ rf admission and their
  // coherence permutations. The walk runs over those accesses once and
  // hands each leaf to every column through an access-id map. Per base it
  // builds po-loc and each backend's statics (targets/TargetModels.h:
  // everything derived from po and the event kinds); per leaf it checks
  // atomicity and SC-per-location once for all columns, then each column
  // still without a witness for the outcome runs its own final axiom. The
  // single-column doors below are that walk with one model.

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

  /// Outcome-level target enumeration; see the
  /// JavaScript enumerateOutcomes overload for the contract. Under
  /// EngineConfig::StaticFastPath the static tier reads \p Source, the
  /// analysis::analyzeValues of the litmus program \p CT was compiled
  /// from (through uniFromProgram and compileUni): its DRF certificate
  /// selects the SC table, and each compiled access takes the may-rf set
  /// of its source access (TargetInstr::SourceIdx). With \p Source null
  /// the door runs the admission-pruned walk without the static tier.
  /// Throws std::invalid_argument when \p Source has a different access
  /// count than \p CT's source program.
  OutcomeSummary enumerateOutcomes(const CompiledTarget &CT,
                                   const TargetModel &M,
                                   const analysis::StaticValues *Source =
                                       nullptr) const;

  /// The joint door: one walk for the compiled forms \p CTs of one uni-size
  /// program, each judged by the backend of its CompiledTarget::Arch, one
  /// summary per form in order. Each summary equals the single-column
  /// door's on that form: outcomes, CandidatesConsidered and
  /// ValidCandidates; Stats holds the one walk's counters, which every
  /// column shares. Throws std::invalid_argument when the forms come from
  /// different programs, and CapacityError when one exceeds
  /// Relation::MaxSize (callers drop such a form first).
  std::vector<OutcomeSummary>
  enumerateOutcomes(const std::vector<CompiledTarget> &CTs,
                    const analysis::StaticValues *Source = nullptr) const;

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

  /// Effort counters of the most recent enumerate(), enumerateOutcomes(),
  /// scDrf() or forEachAdmittedCandidate() call on this engine (zero after
  /// a static fast-path answer).
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
