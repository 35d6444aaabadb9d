//===- solver/TotSolver.cpp - Problem type, brute solver, registry --------===//

#include "solver/TotSolver.h"

#include "obs/Obs.h"
#include "support/LinearExtensions.h"

#include <atomic>

using namespace jsmm;

//===----------------------------------------------------------------------===//
// Solver activity accounting
//===----------------------------------------------------------------------===//

void SolverActivity::add(const SolverActivity &O) {
  Queries += O.Queries;
  PropagateBranches += O.PropagateBranches;
  PropagateForcedEdges += O.PropagateForcedEdges;
  BruteExtensions += O.BruteExtensions;
}

bool SolverActivity::any() const {
  return Queries || PropagateBranches || PropagateForcedEdges ||
         BruteExtensions;
}

void SolverActivitySink::add(const SolverActivity &A) {
  Queries.fetch_add(A.Queries, std::memory_order_relaxed);
  PropagateBranches.fetch_add(A.PropagateBranches, std::memory_order_relaxed);
  PropagateForcedEdges.fetch_add(A.PropagateForcedEdges,
                                 std::memory_order_relaxed);
  BruteExtensions.fetch_add(A.BruteExtensions, std::memory_order_relaxed);
}

SolverActivity SolverActivitySink::snapshot() const {
  SolverActivity A;
  A.Queries = Queries.load(std::memory_order_relaxed);
  A.PropagateBranches = PropagateBranches.load(std::memory_order_relaxed);
  A.PropagateForcedEdges =
      PropagateForcedEdges.load(std::memory_order_relaxed);
  A.BruteExtensions = BruteExtensions.load(std::memory_order_relaxed);
  return A;
}

namespace {

thread_local SolverActivitySink *CurrentSink = nullptr;

} // namespace

SolverActivitySink *jsmm::currentSolverActivitySink() { return CurrentSink; }

SolverActivitySink *jsmm::setCurrentSolverActivitySink(SolverActivitySink *S) {
  SolverActivitySink *Prev = CurrentSink;
  CurrentSink = S;
  return Prev;
}

SolverQueryScope::SolverQueryScope(SolverKind Kind)
    : Kind(Kind), Active(obs::metricsEnabled() || CurrentSink != nullptr) {
  if (Active && obs::metricsEnabled())
    Start = std::chrono::steady_clock::now();
}

SolverQueryScope::~SolverQueryScope() {
  if (!Active)
    return;
  Act.Queries = 1;
  if (SolverActivitySink *S = CurrentSink)
    S->add(Act);
  if (!obs::metricsEnabled())
    return;
  obs::MetricsRegistry &R = obs::registry();
  R.counter("solver.queries").add(1);
  R.counter(std::string("solver.") + solverKindName(Kind) + ".queries")
      .add(1);
  if (Act.PropagateBranches)
    R.counter("solver.propagate.branches").add(Act.PropagateBranches);
  if (Act.PropagateForcedEdges)
    R.counter("solver.propagate.forced_edges").add(Act.PropagateForcedEdges);
  if (Act.BruteExtensions)
    R.counter("solver.brute.extensions").add(Act.BruteExtensions);
  R.histogram("solver.query_us")
      .recordMicros(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()));
}

std::vector<unsigned>
jsmm::lexSmallestExtension(const Relation &Must, const BitSet &Universe) {
  // Kahn's algorithm: Unplaced[E] counts E's strict predecessors inside
  // Universe not yet placed, and Ready holds the unplaced elements whose
  // count is zero. Placing the smallest ready index first is the stable
  // tie-break, so this is the order a rescan for the smallest element
  // without unplaced predecessors would pick, in O(pairs + n·n/64).
  const unsigned N = Must.size();
  std::vector<unsigned> Unplaced(N, 0);
  bits::forEach(Universe, [&](unsigned A) {
    bits::forEach(Must.row(A) & Universe, [&](unsigned B) {
      Unplaced[B] += B != A;
    });
  });
  BitSet Ready = Relation::emptySet(N);
  bits::forEach(Universe, [&](unsigned E) {
    if (!Unplaced[E])
      bits::set(Ready, E);
  });
  std::vector<unsigned> Order;
  Order.reserve(bits::count(Universe));
  while (bits::any(Ready)) {
    unsigned Picked = N;
    bits::forEachWhile(Ready, [&](unsigned E) {
      Picked = E;
      return false;
    });
    bits::clear(Ready, Picked);
    Order.push_back(Picked);
    bits::forEach(Must.row(Picked) & Universe, [&](unsigned B) {
      if (B != Picked && --Unplaced[B] == 0)
        bits::set(Ready, B);
    });
  }
  return Order;
}

//===----------------------------------------------------------------------===//
// BruteForceSolver
//===----------------------------------------------------------------------===//

namespace {

/// \returns true if the just-placed last element of \p Seq completes a
/// Forbidden constraint (as its Hi endpoint) in realized order. Realized
/// prefixes stay realized under every completion, so existsExtension may
/// prune the subtree.
bool prefixRealizesConstraint(const TotProblem &P,
                              const std::vector<unsigned> &Seq) {
  if (Seq.empty())
    return false;
  unsigned Last = Seq.back();
  for (const TotConstraint &C : P.Forbidden) {
    if (C.Hi != Last)
      continue;
    // Lo must appear before Mid, both before Last.
    int LoPos = -1, MidPos = -1;
    for (size_t I = 0; I + 1 < Seq.size(); ++I) {
      if (Seq[I] == C.Lo)
        LoPos = static_cast<int>(I);
      else if (Seq[I] == C.Mid)
        MidPos = static_cast<int>(I);
    }
    if (LoPos >= 0 && MidPos >= 0 && LoPos < MidPos)
      return true;
  }
  return false;
}

} // namespace

bool BruteForceSolver::existsExtension(const TotProblem &P,
                                       Relation *TotOut) const {
  SolverQueryScope Scope(SolverKind::Brute);
  SolverActivity *A = Scope.activity();
  bool Found = false;
  forEachLinearExtension(
      P.Must, P.Universe,
      [&](const std::vector<unsigned> &Seq) {
        if (A)
          ++A->BruteExtensions;
        Relation Tot = totalOrderOver(Seq, P.N);
        if (!P.violates(Tot)) {
          Found = true;
          if (TotOut)
            *TotOut = Tot;
          return false; // stop
        }
        return true;
      },
      [&](const std::vector<unsigned> &Seq) {
        return !prefixRealizesConstraint(P, Seq);
      });
  return Found;
}

bool BruteForceSolver::existsViolatingExtension(const TotProblem &P,
                                                Relation *TotOut) const {
  SolverQueryScope Scope(SolverKind::Brute);
  SolverActivity *A = Scope.activity();
  bool Found = false;
  forEachLinearExtension(
      P.Must, P.Universe, [&](const std::vector<unsigned> &Seq) {
        if (A)
          ++A->BruteExtensions;
        Relation Tot = totalOrderOver(Seq, P.N);
        if (P.violates(Tot)) {
          Found = true;
          if (TotOut)
            *TotOut = Tot;
          return false;
        }
        return true;
      });
  return Found;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

const TotSolver &jsmm::totSolver(SolverKind Kind) {
  static const BruteForceSolver Brute;
  static const PropagationSolver Propagate;
  if (Kind == SolverKind::Brute)
    return Brute;
  return Propagate;
}

const TotSolver &jsmm::totSolver(const SolverConfig &Config) {
  return totSolver(Config.Kind.value_or(defaultSolverKind()));
}

namespace {

std::atomic<SolverKind> DefaultKind{SolverKind::Propagate};

} // namespace

SolverKind jsmm::defaultSolverKind() {
  return DefaultKind.load(std::memory_order_relaxed);
}

void jsmm::setDefaultSolverKind(SolverKind Kind) {
  DefaultKind.store(Kind, std::memory_order_relaxed);
}

const TotSolver &jsmm::defaultTotSolver() {
  return totSolver(defaultSolverKind());
}

const char *jsmm::solverKindName(SolverKind Kind) {
  return Kind == SolverKind::Brute ? "brute" : "propagate";
}

std::optional<SolverKind> jsmm::solverKindByName(const std::string &Name) {
  for (SolverKind K : allSolverKinds())
    if (Name == solverKindName(K))
      return K;
  return std::nullopt;
}

std::vector<SolverKind> jsmm::allSolverKinds() {
  return {SolverKind::Brute, SolverKind::Propagate};
}
