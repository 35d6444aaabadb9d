//===- solver/PropagationSolver.cpp - Constraint-propagation tot search ---===//
///
/// \file
/// Decides "∃ tot ⊇ Must avoiding every betweenness constraint" by
/// incremental constraint propagation instead of witness enumeration
/// (the PrideMM/EMME observation that consistency questions are constraint
/// problems, not enumeration problems):
///
///   - the must-order is kept transitively closed (row and column bit sets
///     per element), so entailment and cycle tests are O(1) bit probes and
///     edge insertion is an O(n) closure update;
///   - each constraint "not (Lo < Mid < Hi)" is, over total orders, the
///     disjunction (Mid < Lo) ∨ (Hi < Mid). A constraint whose disjunct is
///     already entailed is discharged; one whose disjunct has become
///     impossible (the reverse edge is entailed) unit-propagates the other
///     disjunct as a forced must-edge; one with both disjuncts impossible
///     is a conflict that fails the whole branch at once;
///   - propagation runs to fixpoint; only constraints still genuinely
///     unconstrained afterwards trigger a two-way branch, with the solver
///     state (two relations: 1 KiB at 64 events) copied per branch.
///
/// When every constraint is discharged the closed must-order is acyclic
/// and every one of its linear extensions avoids every constraint, so the
/// lexicographically smallest extension of that order is returned as the
/// witness. The branching order makes this witness deterministic for a
/// given problem (it may differ from the brute-force oracle's witness,
/// which is the lex-smallest satisfying extension of the *original*
/// must-order; both validate, and each solver is self-consistent).
///
//===----------------------------------------------------------------------===//

#include "solver/ClosedOrder.h"
#include "solver/TotSolver.h"

#include <cstdint>

using namespace jsmm;

namespace {

/// The backtracking search over constraint branches. \p Act, when
/// non-null, counts branch openings and unit-propagated edges for the
/// observability layer (solver/TotSolver.h SolverQueryScope).
class Search {
public:
  Search(const TotProblem &P, SolverActivity *Act = nullptr)
      : P(P), Act(Act) {}

  bool run(Relation *TotOut) {
    ClosedOrder Order;
    if (!Order.init(P.Must, P.Universe))
      return false;
    std::vector<uint32_t> Active(P.Forbidden.size());
    for (uint32_t I = 0; I < Active.size(); ++I)
      Active[I] = I;
    if (!solve(Order, std::move(Active)))
      return false;
    if (TotOut)
      *TotOut = totalOrderOver(
          lexSmallestExtension(Witness.toRelation(), P.Universe), P.N);
    return true;
  }

private:
  /// Propagates to fixpoint, then branches on the first surviving
  /// constraint. \p Active is owned by this frame (branches copy it).
  bool solve(ClosedOrder Order, std::vector<uint32_t> Active) {
    // Unit propagation to fixpoint: discharge entailed constraints, force
    // the surviving disjunct of half-dead ones, fail on fully dead ones.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      size_t Keep = 0;
      for (size_t I = 0; I < Active.size(); ++I) {
        const TotConstraint &C = P.Forbidden[Active[I]];
        if (Order.entails(C.Mid, C.Lo) || Order.entails(C.Hi, C.Mid))
          continue; // discharged: a disjunct is entailed
        bool LoMidDead = Order.entails(C.Lo, C.Mid); // Mid<Lo impossible
        bool HiMidDead = Order.entails(C.Mid, C.Hi); // Hi<Mid impossible
        if (LoMidDead && HiMidDead)
          return false; // conflict: the constraint is unsatisfiable
        if (LoMidDead) {
          if (Act)
            ++Act->PropagateForcedEdges;
          if (!Order.addEdge(C.Hi, C.Mid))
            return false;
          Changed = true;
          continue; // now discharged
        }
        if (HiMidDead) {
          if (Act)
            ++Act->PropagateForcedEdges;
          if (!Order.addEdge(C.Mid, C.Lo))
            return false;
          Changed = true;
          continue;
        }
        Active[Keep++] = Active[I];
      }
      Active.resize(Keep);
    }
    if (Active.empty()) {
      Witness = Order;
      return true;
    }
    // Branch on the first genuinely unconstrained constraint: tots with
    // Mid < Lo, then (on conflict) tots with Hi < Mid. Together the two
    // branches cover every satisfying total order.
    const TotConstraint &C = P.Forbidden[Active.front()];
    if (Act)
      ++Act->PropagateBranches;
    {
      ClosedOrder Try = Order;
      if (Try.addEdge(C.Mid, C.Lo) && solve(Try, Active))
        return true;
    }
    ClosedOrder Try = Order;
    return Try.addEdge(C.Hi, C.Mid) && solve(std::move(Try),
                                             std::move(Active));
  }

  const TotProblem &P;
  SolverActivity *Act;
  ClosedOrder Witness;
};

} // namespace

bool PropagationSolver::existsExtension(const TotProblem &P,
                                        Relation *TotOut) const {
  SolverQueryScope Scope(SolverKind::Propagate);
  if (P.Forbidden.empty()) {
    // Every linear extension of Must is a witness, so the question is
    // whether Must is acyclic on Universe, and no closure is needed. The
    // lex-smallest extension of Must is that of its closure (a set placed
    // smallest-ready-first is a down-set of both), so the witness is the
    // one the search below returns.
    if (!TotOut) {
      if (bits::count(P.Universe) == P.N)
        return P.Must.isAcyclic();
      return P.Must.restricted(P.Universe, P.Universe).isAcyclic();
    }
    // Kahn's order skips reflexive pairs, so a self-loop is tested apart.
    std::vector<unsigned> Order = lexSmallestExtension(P.Must, P.Universe);
    if (Order.size() != bits::count(P.Universe) ||
        !bits::forEachWhile(P.Universe,
                            [&](unsigned A) { return !P.Must.get(A, A); }))
      return false;
    *TotOut = totalOrderOver(Order, P.N);
    return true;
  }
  Search S(P, Scope.activity());
  return S.run(TotOut);
}

bool PropagationSolver::existsViolatingExtension(const TotProblem &P,
                                                 Relation *TotOut) const {
  SolverQueryScope Scope(SolverKind::Propagate);
  ClosedOrder Base;
  if (!Base.init(P.Must, P.Universe))
    return false; // no well-formed tot at all
  // A single realized constraint suffices: try each in order (stable
  // choice), checking that Lo < Mid < Hi is compatible with the must-order.
  for (const TotConstraint &C : P.Forbidden) {
    ClosedOrder Try = Base;
    if (!Try.addEdge(C.Lo, C.Mid) || !Try.addEdge(C.Mid, C.Hi))
      continue;
    if (TotOut)
      *TotOut = totalOrderOver(
          lexSmallestExtension(Try.toRelation(), P.Universe), P.N);
    return true;
  }
  return false;
}
