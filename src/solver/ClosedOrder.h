//===- solver/ClosedOrder.h - Incrementally closed partial order ----------===//
///
/// \file
/// A transitively closed strict partial order with O(1) entailment probes
/// and incremental closure on edge insertion, the must-order of the
/// constraint-propagation search (solver/PropagationSolver.cpp). It keeps
/// the closed order twice, as successor rows (Succ) and as predecessor
/// rows (Pred, its inverse), so an insertion updates whole rows and no
/// column is read.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SOLVER_CLOSEDORDER_H
#define JSMM_SOLVER_CLOSEDORDER_H

#include "support/Relation.h"

namespace jsmm {

/// Transitively closed order with O(1) entailment probes and incremental
/// closure on edge insertion.
struct ClosedOrder {
  Relation Succ; ///< row A: everything after A
  Relation Pred; ///< row B: everything before B

  /// Initializes from \p Must restricted to \p Universe.
  /// \returns false if the restriction is cyclic.
  bool init(const Relation &Must, const BitSet &Universe) {
    Succ = Must.restricted(Universe, Universe).transitiveClosure();
    if (!Succ.isIrreflexive())
      return false;
    Pred = Succ.inverse();
    return true;
  }

  bool entails(unsigned A, unsigned B) const { return Succ.get(A, B); }

  /// Adds A -> B and recloses. \returns false on a cycle (B already
  /// ordered before A, or A == B); the state is unchanged in that case.
  bool addEdge(unsigned A, unsigned B) {
    if (A == B || entails(B, A))
      return false;
    if (entails(A, B))
      return true;
    BitSet Before = Pred.row(A);
    bits::set(Before, A);
    BitSet After = Succ.row(B);
    bits::set(After, B);
    bits::forEach(Before, [&](unsigned E) { Succ.uniteRow(E, After); });
    bits::forEach(After, [&](unsigned E) { Pred.uniteRow(E, Before); });
    return true;
  }

  const Relation &toRelation() const { return Succ; }
};

} // namespace jsmm

#endif // JSMM_SOLVER_CLOSEDORDER_H
