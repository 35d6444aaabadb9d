//===- solver/ClosedOrder.h - Incrementally closed partial order ----------===//
///
/// \file
/// A transitively closed strict partial order with O(1) entailment probes
/// and incremental closure on edge insertion, the must-order of the
/// constraint-propagation search (solver/PropagationSolver.cpp). Succ/Pred
/// storage is the relation flavour's SetArray: a fixed inline array on
/// the fast tier, a vector of heap sets on the dynamic tier. init() fills
/// Succ from the rows of the closed must-order and Pred from the rows of
/// its one inverse, so no column is read.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SOLVER_CLOSEDORDER_H
#define JSMM_SOLVER_CLOSEDORDER_H

#include "support/DynRelation.h"
#include "support/Relation.h"

#include <type_traits>
#include <vector>

namespace jsmm {

/// Transitively closed order with O(1) entailment probes and incremental
/// closure on edge insertion.
template <typename RelT> struct ClosedOrder {
  using SetT = typename RelT::SetT;

  typename RelT::SetArray Succ; ///< Succ[A]: everything after A
  typename RelT::SetArray Pred; ///< Pred[B]: everything before B
  unsigned N = 0;

  /// Initializes from \p Must restricted to \p Universe.
  /// \returns false if the restriction is cyclic.
  bool init(const RelT &Must, const SetT &Universe) {
    N = Must.size();
    if constexpr (std::is_same_v<typename RelT::SetArray,
                                 std::vector<SetT>>) {
      Succ.assign(N, RelT::emptySet(N));
      Pred.assign(N, RelT::emptySet(N));
    }
    RelT Closed = Must.restricted(Universe, Universe).transitiveClosure();
    if (!Closed.isIrreflexive())
      return false;
    RelT Before = Closed.inverse();
    for (unsigned A = 0; A < N; ++A) {
      Succ[A] = Closed.row(A);
      Pred[A] = Before.row(A);
    }
    return true;
  }

  bool entails(unsigned A, unsigned B) const {
    return bits::test(Succ[A], B);
  }

  /// Adds A -> B and recloses. \returns false on a cycle (B already
  /// ordered before A, or A == B); the state is unchanged in that case.
  bool addEdge(unsigned A, unsigned B) {
    if (A == B || entails(B, A))
      return false;
    if (entails(A, B))
      return true;
    SetT Before = Pred[A];
    bits::set(Before, A);
    SetT After = Succ[B];
    bits::set(After, B);
    bits::forEach(Before, [&](unsigned E) { Succ[E] |= After; });
    bits::forEach(After, [&](unsigned E) { Pred[E] |= Before; });
    return true;
  }

  RelT toRelation() const {
    RelT R(N);
    for (unsigned A = 0; A < N; ++A)
      bits::forEach(Succ[A], [&](unsigned B) { R.set(A, B); });
    return R;
  }
};

} // namespace jsmm

#endif // JSMM_SOLVER_CLOSEDORDER_H
