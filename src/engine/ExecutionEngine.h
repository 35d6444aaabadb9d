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
///     enumerated by one driver and one reads-from walk for every event
///     language. Each language supplies its bases and the walk's hooks;
///   - incremental pruning: the model's tot-independent axioms are checked
///     on partial candidates the moment each read's justification
///     completes, cutting whole subtrees before the expensive
///     linear-extension search. The JavaScript walk keeps rf, sw and hb
///     along the walk, adding a complete read's edges and undoing them on
///     backtrack, so no prefix or leaf derives them from scratch. The
///     ARMv8 walk checks armRefutedForEveryCo the same way and reads
///     each coherence granule from one writer;
///   - sharded multi-threaded enumeration: the path × first-justification
///     space is split into work items executed by a small thread pool;
///     per-item results and counters are merged in item order, so the
///     outcome of an enumeration is deterministic regardless of scheduling.
///
/// The engine's doors are the only way to enumerate: the service, the
/// search, flatsim, compile, targets and unisize layers, the tests, benches
/// and examples all construct an ExecutionEngine and call one of them.
/// Each door takes its model (JsModel, Armv8Model or a TargetModel) as a
/// plain class, with no common base.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ENGINE_EXECUTIONENGINE_H
#define JSMM_ENGINE_EXECUTIONENGINE_H

#include "armv8/ArmProgram.h"
#include "core/DataRace.h"
#include "engine/MemoryModel.h"
#include "engine/TargetModel.h"
#include "exec/Outcome.h"
#include "litmus/Program.h"

#include <functional>
#include <map>
#include <optional>
#include <string>

namespace jsmm {

namespace analysis {
struct StaticValues;
} // namespace analysis

/// The allowed outcomes of a JavaScript program, each with one witnessing
/// valid execution (with tot); the result of enumerate(Program, JsModel).
struct EnumerationResult {
  std::map<Outcome, CandidateExecution> Allowed;
  uint64_t CandidatesConsidered = 0;
  uint64_t ValidCandidates = 0;

  bool allows(const Outcome &O) const { return Allowed.count(O) != 0; }
  /// \returns the sorted allowed outcomes as strings (for table printing).
  std::vector<std::string> outcomeStrings() const {
    std::vector<std::string> Out;
    for (const auto &[O, Witness] : Allowed) {
      (void)Witness;
      Out.push_back(O.toString());
    }
    return Out;
  }
};

/// The model-internal SC-DRF property (§3.2 / Thm 6.1) checked on one
/// program: if no valid execution of the program contains a data race, then
/// every valid execution must be sequentially consistent. The result of
/// scDrf().
struct ScDrfReport {
  bool DataRaceFree = true;     ///< no valid execution has a race
  bool AllValidExecutionsSC = true;
  /// The property itself: DRF implies all-SC (vacuously true when racy).
  bool holds() const { return !DataRaceFree || AllValidExecutionsSC; }
  std::optional<CandidateExecution> RaceWitness;
  std::optional<CandidateExecution> NonScWitness;
};

/// The events and thread-local relations of one control-flow unfolding of
/// an ARMv8 program, before read values, rbf and co have been chosen. Reads
/// have zeroed bytes. The skeleton stage is shared by the operational
/// simulator (flatsim) and the compilation-correctness machinery; see
/// forEachSkeleton().
struct ArmSkeleton {
  ArmExecution Exec;
  std::map<EventId, unsigned> RegOfEvent; ///< load event -> dst register
  std::vector<const ArmThreadPath *> Paths; ///< chosen path per thread
};

/// The outcomes of an ARMv8 program allowed by the mixed-size model, each
/// with one consistent witness; the result of enumerate(ArmProgram,
/// Armv8Model).
struct ArmEnumerationResult {
  std::map<Outcome, ArmExecution> Allowed;
  uint64_t CandidatesConsidered = 0;
  uint64_t ConsistentCandidates = 0;

  bool allows(const Outcome &O) const { return Allowed.count(O) != 0; }
  std::vector<std::string> outcomeStrings() const {
    std::vector<std::string> Out;
    for (const auto &[O, X] : Allowed) {
      (void)X;
      Out.push_back(O.toString());
    }
    return Out;
  }
};

/// Tuning knobs of the engine.
struct EngineConfig {
  /// Worker threads for whole-space enumerations (enumerate()). 0 means
  /// one worker per hardware thread. A call whose work items finish
  /// within a millisecond runs on the calling thread. Early-stopping
  /// visitor walks (forEachCandidate and friends) are always sequential,
  /// because their visitation order is part of the API.
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
  /// The static tier of the outcome-level entry points: static may-rf and
  /// path pruning, driven by one value analysis of the litmus program
  /// (analysis::analyzeValues). Writer choices outside a read's static
  /// may-rf candidate set (or contradicting the path's register
  /// constraints) are skipped, and path combinations with
  /// statically-contradicted branch constraints are dropped — counted by
  /// EngineStats::StaticRfPruned / StaticPathsPruned with verdict tables
  /// unchanged (static_values_test pins equality). Every door walks the
  /// full space; a statically-DRF program is answered from the SC table
  /// by the service (LitmusService), not here. The name is kept because
  /// EngineConfig is filled in positionally elsewhere.
  ///
  /// The JavaScript door analyses the program itself unless the caller
  /// passes the analysis; the target door has no program to analyse and
  /// prunes only when the caller passes the analysis of the source
  /// program the compiled form came from. Off by default like Reduction;
  /// on at the CLI/service front doors, which analyse each job once and
  /// hand the analysis to every column, and where --no-static restores
  /// the unpruned walk. The witness-carrying entry points (enumerate /
  /// scDrf / forEach*) never use the analysis.
  bool StaticFastPath = false;

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
  /// The walk's relation row width: "inline" (≤64 events: one-word rows,
  /// stored inline) or "dyn" (rows of several words, on the heap). Filled
  /// by the enumerateOutcomes() doors.
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
  /// The UniProgram overload bounds the uni-js column of the joint target
  /// door (and uniAllowedOutcomes, its one-column call), counting every
  /// init write.
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
  /// witnesses: no tot is asked for and no execution copied. Without the
  /// static tier and reduction, identical outcomes and counters to
  /// enumerate() (it is the same walk). Throws CapacityError past
  /// Relation::MaxSize events. Under EngineConfig::StaticFastPath the
  /// walk is pruned by \p SV, which must be analysis::analyzeValues(P);
  /// with \p SV null the door computes that analysis itself. Without
  /// StaticFastPath \p SV is ignored. A statically-DRF program is walked
  /// like any other.
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
  /// prefixes violate tot-independent axioms are skipped). Each visit also
  /// gets the candidate's rf, sw and hb under \p M's sw definition as the
  /// walk keeps them (CE.derived(M.spec().Sw)). \p Prefix, when set, is
  /// called at every admitted prefix, once a read completes and passes the
  /// admission, with the prefix (its later reads have no rbf edges yet)
  /// and the walk's relations.
  bool forEachAdmittedCandidate(
      const Program &P, const JsModel &M,
      const std::function<bool(const CandidateExecution &,
                               const DerivedTriple &, const Outcome &)>
          &Visit,
      const std::function<void(const CandidateExecution &,
                               const DerivedTriple &)> &Prefix = {}) const;

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

  // --- Uni-size frontend: Thm 6.3 backends and uni-js --------------------
  //
  // Every target door is one rf × co walk over the uni-size program's
  // events (ARCHITECTURE.md, "One walk for the seven uni-size columns").
  // compileUni maps each source access to exactly one access and only
  // adds fences, so the compiled forms of one program share their writers
  // per read, their po-loc ∪ rf admission and their coherence
  // permutations. The walk runs over those accesses once, leaving out the
  // init writes of locations no read touches, and hands each leaf to
  // every column through an access-id map. Per base it builds po-loc and
  // each backend's statics (targets/TargetModels.h: everything derived
  // from po and the event kinds); per leaf it checks atomicity and
  // SC-per-location once for all columns, then each column still without
  // a witness for the outcome runs its own final axiom. The uni-size
  // JavaScript model (uni-js) can ride along: it is judged once per rf
  // leaf, from hb₀ = (sb ∪ init edges)⁺ built once per base. The
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
  /// EngineConfig::StaticFastPath the walk is pruned by \p Source, the
  /// analysis::analyzeValues of the litmus program \p CT was compiled
  /// from (through uniFromProgram and compileUni): each compiled access
  /// takes the may-rf set of its source access (TargetInstr::SourceIdx).
  /// With \p Source null the door runs the admission-pruned walk without
  /// the static tier. Throws std::invalid_argument when \p Source has a
  /// different access count than \p CT's source program.
  OutcomeSummary enumerateOutcomes(const CompiledTarget &CT,
                                   const TargetModel &M,
                                   const analysis::StaticValues *Source =
                                       nullptr) const;

  /// The joint door: one walk for the compiled forms \p CTs of one uni-size
  /// program, each judged by the backend of its CompiledTarget::Arch, one
  /// summary per form in order. Each summary equals the single-column
  /// door's on that form: outcomes, CandidatesConsidered and
  /// ValidCandidates; Stats holds the one walk's counters, which every
  /// column shares. Given \p UniJs, the program the forms come from (with
  /// no forms, any uni-size program), the walk also judges it under the
  /// uni-size JavaScript model of Fig. 12, and its summary follows the
  /// forms'. The target summaries and Stats are the same with uni-js along
  /// as without it; with no forms, Stats are uni-js's. Throws
  /// std::invalid_argument when the forms come from different programs,
  /// and CapacityError when a form or \p UniJs exceeds Relation::MaxSize
  /// (callers drop such a form first).
  std::vector<OutcomeSummary>
  enumerateOutcomes(const std::vector<CompiledTarget> &CTs,
                    const analysis::StaticValues *Source = nullptr,
                    const UniProgram *UniJs = nullptr) const;

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

  // --- Wait/notify support ----------------------------------------------

  /// The reads-from walk over one materialised JavaScript execution (a §7
  /// wait/notify schedule): justifies \p CE's reads byte by byte, cuts a
  /// read whose complete value \p ValueAllowed rejects, and invokes
  /// \p Visit on each complete justification. \p Visit returns false to
  /// stop; \returns false if stopped.
  static bool forEachJustification(
      CandidateExecution &CE,
      const std::function<bool(const Event &)> &ValueAllowed,
      const std::function<bool(const CandidateExecution &)> &Visit);

  /// Effort counters of the most recent enumerate(), enumerateOutcomes(),
  /// scDrf() or forEachAdmittedCandidate() call on this engine.
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
