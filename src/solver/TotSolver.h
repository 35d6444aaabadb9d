//===- solver/TotSolver.h - Order solvers for tot witnesses ---------------===//
///
/// \file
/// The order-solver subsystem. Every existential question about the
/// JavaScript total-order witness — "does some tot ⊇ hb satisfy the
/// Sequentially Consistent Atomics rule?", its refutation dual used by the
/// counter-example searches, the syntactic-deadness variant, and the
/// uni-size model's copy of the question — reduces to one constraint form
/// over a small universe:
///
///   find a strict total order tot ⊇ Must (on Universe) that avoids — or,
///   for the dual, realizes — a set of betweenness constraints
///   "not (Lo <tot Mid <tot Hi)",
///
/// because every tot-dependent axiom inspects tot only through "is some
/// event strictly tot-between this pair" patterns whose side conditions
/// (ranges, modes, sw/hb/rf membership) are all tot-independent. The
/// constraint extraction lives next to the models (solver/ScConstraints
/// for the mixed-size JS model, unisize/UniExecution for Fig. 12); this
/// header is model-agnostic.
///
/// The problem is posed over support/Relation.h's one relation type, so
/// both solvers answer every program size up to Relation::MaxSize events.
///
/// Two interchangeable deciders implement the interface:
///
///   - BruteForceSolver: the seed's linear-extension enumeration (now with
///     a mid-prefix early exit), kept as the differential oracle;
///   - PropagationSolver: incremental constraint propagation — a
///     transitively closed must-order, unit propagation of forced edges,
///     early cycle detection, and backtracking only on genuinely
///     unconstrained choices. See solver/PropagationSolver.cpp.
///
/// Callers pick a solver through SolverConfig; an unset config resolves to
/// the process-wide default (settable from the CLI via --solver=...).
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SOLVER_TOTSOLVER_H
#define JSMM_SOLVER_TOTSOLVER_H

#include "support/Relation.h"

#include <atomic>
#include <chrono>
#include <optional>

namespace jsmm {

/// One betweenness constraint: tot must NOT order Lo <tot Mid <tot Hi.
/// (Equivalently, since tot is total: Mid <tot Lo or Hi <tot Mid.)
struct TotConstraint {
  unsigned Lo = 0;
  unsigned Mid = 0;
  unsigned Hi = 0;
};

/// A tot-order decision problem: strict total orders over the elements of
/// Universe that contain Must, against a conjunction of betweenness
/// constraints.
struct TotProblem {
  unsigned N = 0;   ///< universe size of the relations
  BitSet Universe;  ///< elements tot must order
  Relation Must;    ///< required pairs (need not be closed)
  std::vector<TotConstraint> Forbidden;

  /// \returns true if \p Tot realizes at least one Forbidden constraint.
  bool violates(const Relation &Tot) const {
    for (const TotConstraint &C : Forbidden)
      if (Tot.get(C.Lo, C.Mid) && Tot.get(C.Mid, C.Hi))
        return true;
    return false;
  }
};

/// The available solver implementations.
enum class SolverKind : uint8_t {
  Brute,
  Propagate,
  /// Never produced: no solver answers to it. Stays only until the next
  /// benchmark change, because perfbench/src/Tracing.cpp still names it.
  Sat
};

/// Pluggable solver selection carried by models and search/enumeration
/// configurations. An empty Kind resolves to the process-wide default.
struct SolverConfig {
  std::optional<SolverKind> Kind;

  static SolverConfig brute() { return {SolverKind::Brute}; }
  static SolverConfig propagate() { return {SolverKind::Propagate}; }
};

/// Interface of a tot-order decider.
class TotSolver {
public:
  virtual ~TotSolver() = default;
  virtual const char *name() const = 0;

  /// Decides whether some strict total order on P.Universe contains P.Must
  /// and avoids every Forbidden constraint. If \p TotOut is non-null and a
  /// witness exists, receives one (with a stable smallest-index tie-break,
  /// so the witness is deterministic for a given problem).
  virtual bool existsExtension(const TotProblem &P,
                               Relation *TotOut = nullptr) const = 0;

  /// The refutation dual: decides whether some strict total order on
  /// P.Universe contains P.Must and realizes at least one Forbidden
  /// constraint. Fills \p TotOut with the violating order when non-null.
  virtual bool existsViolatingExtension(const TotProblem &P,
                                        Relation *TotOut = nullptr) const = 0;
};

/// The seed's decision procedure: enumerate linear extensions of Must and
/// test the constraints on each complete order, with a mid-prefix early
/// exit for existsExtension (a realized constraint on a prefix survives
/// every completion). Kept as the differential oracle for the
/// PropagationSolver.
class BruteForceSolver : public TotSolver {
public:
  const char *name() const override { return "brute"; }
  bool existsExtension(const TotProblem &P,
                       Relation *TotOut = nullptr) const override;
  bool existsViolatingExtension(const TotProblem &P,
                                Relation *TotOut = nullptr) const override;
};

/// Constraint-propagation decider; see solver/PropagationSolver.cpp.
class PropagationSolver : public TotSolver {
public:
  const char *name() const override { return "propagate"; }
  bool existsExtension(const TotProblem &P,
                       Relation *TotOut = nullptr) const override;
  bool existsViolatingExtension(const TotProblem &P,
                                Relation *TotOut = nullptr) const override;
};

/// \returns the process-lifetime singleton for \p Kind.
const TotSolver &totSolver(SolverKind Kind);

/// Resolves a SolverConfig (empty = process default) to its solver.
const TotSolver &totSolver(const SolverConfig &Config);

/// The process-wide default solver kind (initially Propagate). The CLI
/// tools set it from --solver=...; the no-solver-argument overloads of the
/// validity/deadness entry points consult it.
SolverKind defaultSolverKind();
void setDefaultSolverKind(SolverKind Kind);
const TotSolver &defaultTotSolver();

/// Name <-> kind mapping for CLI flags ("brute", "propagate").
const char *solverKindName(SolverKind Kind);
std::optional<SolverKind> solverKindByName(const std::string &Name);

/// \returns every solver kind, for differential sweeps.
std::vector<SolverKind> allSolverKinds();

/// Activity counters of the solver layer for one or more tot-order
/// queries. Every field is a deterministic function of the queries
/// answered (no clocks, no scheduling), so totals are byte-identical
/// across worker/thread counts for a fixed workload — the property the
/// per-job JSONL records and the obs counter-determinism tests pin.
struct SolverActivity {
  uint64_t Queries = 0;         ///< tot-order questions answered (all kinds)
  uint64_t PropagateBranches = 0;    ///< two-way branch openings (backtracks)
  uint64_t PropagateForcedEdges = 0; ///< unit-propagated forced must-edges
  uint64_t BruteExtensions = 0;      ///< linear extensions enumerated
  /// Never produced (always 0): stays only until the next benchmark
  /// change, because perfbench/src/Tracing.cpp still reads it.
  uint64_t SatDecisions = 0;
  /// Never produced (always 0): stays only until the next benchmark
  /// change, because perfbench/src/Tracing.cpp still reads it.
  uint64_t SatConflicts = 0;

  void add(const SolverActivity &O);
  bool any() const;
};

/// A thread-safe accumulation target for SolverActivity — the service
/// installs one per job (see setCurrentSolverActivitySink) to attribute
/// solver work to the job that caused it; atomic fields because the
/// engine's sharded enumeration propagates the installing thread's sink
/// to its worker threads.
class SolverActivitySink {
public:
  void add(const SolverActivity &A);
  SolverActivity snapshot() const;

private:
  std::atomic<uint64_t> Queries{0};
  std::atomic<uint64_t> PropagateBranches{0};
  std::atomic<uint64_t> PropagateForcedEdges{0};
  std::atomic<uint64_t> BruteExtensions{0};
};

/// This thread's activity sink (nullptr when none is installed).
SolverActivitySink *currentSolverActivitySink();
/// Installs \p S as this thread's sink. \returns the previous sink, for
/// scoped restore.
SolverActivitySink *setCurrentSolverActivitySink(SolverActivitySink *S);

/// RAII wrapper around one solver query: the implementations fill
/// activity() (nullptr when neither metrics nor a sink is active — hot
/// loops gate their counting on that), and the destructor flushes the
/// counts to the thread sink and, when obs metrics are enabled, to the
/// process registry along with the query's wall time
/// (`solver.query_us`).
class SolverQueryScope {
public:
  explicit SolverQueryScope(SolverKind Kind);
  SolverQueryScope(const SolverQueryScope &) = delete;
  SolverQueryScope &operator=(const SolverQueryScope &) = delete;
  ~SolverQueryScope();

  /// \returns the counters to fill, or nullptr when observability is off.
  SolverActivity *activity() { return Active ? &Act : nullptr; }

private:
  SolverActivity Act;
  SolverKind Kind;
  bool Active;
  std::chrono::steady_clock::time_point Start;
};

/// \returns the lexicographically smallest linear extension of \p Must
/// restricted to \p Universe (smallest-index-first tie-break) — the stable
/// witness order shared by both solvers. \p Must restricted to Universe
/// must be acyclic.
std::vector<unsigned> lexSmallestExtension(const Relation &Must,
                                           const BitSet &Universe);

} // namespace jsmm

#endif // JSMM_SOLVER_TOTSOLVER_H
