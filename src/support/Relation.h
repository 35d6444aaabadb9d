//===- support/Relation.h - Binary relations over small universes --------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary relations over fixed universes, stored as bit matrices. Candidate
/// executions in the JavaScript and target axiomatic models are small
/// (litmus-test sized), so every derived relation (sequenced-before,
/// happens-before, ordered-before, ...) is represented with this type and
/// manipulated with standard relational algebra.
///
/// `Relation` keeps one inline word per row, so universes are capped at 64
/// elements and event sets (SetT) are uint64_t masks. For programs beyond
/// 64 events the engine switches to the heap-backed DynRelation
/// (support/DynRelation.h), which shares this interface.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_RELATION_H
#define JSMM_SUPPORT_RELATION_H

#include "support/Bits.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace jsmm {

namespace detail {
/// Fails a relation construction whose universe exceeds the type's MaxSize
/// by throwing CapacityError("relation universe too large (N elements >
/// MaxSize)"). Out-of-line so the header does not pull in <stdexcept>.
[[noreturn]] void relationUniverseTooLarge(unsigned Size, unsigned MaxSize);

std::string renderRelation(
    const std::vector<std::pair<unsigned, unsigned>> &Pairs);
} // namespace detail

/// A binary relation on {0, ..., size()-1} represented as a bit matrix.
/// Row A holds the successor set of A: bit B of row A is set iff <A,B> is in
/// the relation.
///
/// Storage is a fixed inline array of one word per row, so constructing,
/// copying and returning relations never allocates — the derived-relation
/// pipelines create tens of temporaries per candidate execution, millions
/// of times per sweep, and heap traffic dominated their cost with
/// heap-backed rows. Only the first size() rows are meaningful; every
/// operation is bounded by size(). Every ≤64-event fast path in the
/// engine, the searches and the solvers runs on this type.
class Relation {
public:
  static constexpr unsigned MaxSize = 64;

  /// The event-set type: a raw uint64_t mask.
  using SetT = uint64_t;
  /// Mask-array type sized for this relation flavour (the propagation
  /// solver keeps one successor/predecessor set per element).
  using SetArray = std::array<SetT, MaxSize>;

  Relation() : N(0) {}

  /// Creates the empty relation over a universe of \p Size elements. The
  /// universe cap is enforced in every build mode: a Size above MaxSize
  /// throws CapacityError instead of writing past the row array (an
  /// out-of-range shift would be silent UB in release builds). Frontends
  /// validate event counts up front — see ExecutionEngine::capacityError —
  /// so a throwing construction marks a caller that skipped the check,
  /// never a user-input condition.
  explicit Relation(unsigned Size) : N(Size) {
    if (Size > MaxSize)
      detail::relationUniverseTooLarge(Size, MaxSize);
    std::fill_n(Rows.begin(), N, 0);
  }

  Relation(const Relation &Other) : N(Other.N) {
    std::copy_n(Other.Rows.begin(), N, Rows.begin());
  }

  Relation &operator=(const Relation &Other) {
    N = Other.N;
    std::copy_n(Other.Rows.begin(), N, Rows.begin());
    return *this;
  }

  unsigned size() const { return N; }

  bool get(unsigned A, unsigned B) const {
    assert(A < N && B < N && "element out of range");
    return (Rows[A] >> B) & 1;
  }

  void set(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    Rows[A] |= uint64_t(1) << B;
  }

  void clear(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    Rows[A] &= ~(uint64_t(1) << B);
  }

  /// \returns the empty set over a universe of \p Size elements.
  static SetT emptySet(unsigned Size) {
    (void)Size;
    return 0;
  }

  /// \returns the set of all elements {0, ..., Size-1}.
  static SetT fullSet(unsigned Size) {
    assert(Size <= MaxSize && "universe too large for this relation type");
    return Size >= 64 ? ~uint64_t(0) : (uint64_t(1) << Size) - 1;
  }

  /// \returns the successor set of \p A.
  SetT row(unsigned A) const {
    assert(A < N && "element out of range");
    return Rows[A];
  }

  /// Replaces the successor set of \p A with \p S.
  void assignRow(unsigned A, SetT S) {
    assert(A < N && "element out of range");
    Rows[A] = S;
  }

  /// \returns the predecessor set of \p B: an O(n) strided walk down
  /// every row. A loop that needs many predecessor sets should read the
  /// rows of one inverse() instead.
  SetT column(unsigned B) const {
    assert(B < N && "element out of range");
    SetT Col = 0;
    for (unsigned A = 0; A < N; ++A)
      if (get(A, B))
        bits::set(Col, A);
    return Col;
  }

  bool empty() const {
    for (unsigned I = 0; I < N; ++I)
      if (Rows[I])
        return false;
    return true;
  }

  /// \returns the number of pairs in the relation.
  unsigned count() const {
    unsigned Count = 0;
    for (unsigned I = 0; I < N; ++I)
      Count += bits::count(Rows[I]);
    return Count;
  }

  Relation &unionWith(const Relation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (unsigned I = 0; I < N; ++I)
      Rows[I] |= Other.Rows[I];
    return *this;
  }

  Relation &intersectWith(const Relation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (unsigned I = 0; I < N; ++I)
      Rows[I] &= Other.Rows[I];
    return *this;
  }

  Relation &subtract(const Relation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (unsigned I = 0; I < N; ++I)
      Rows[I] &= ~Other.Rows[I];
    return *this;
  }

  /// \returns the union of this relation and \p Other.
  Relation unioned(const Relation &Other) const {
    Relation R = *this;
    R.unionWith(Other);
    return R;
  }

  /// \returns the intersection of this relation and \p Other.
  Relation intersected(const Relation &Other) const {
    Relation R = *this;
    R.intersectWith(Other);
    return R;
  }

  /// \returns this relation minus \p Other.
  Relation subtracted(const Relation &Other) const {
    Relation R = *this;
    R.subtract(Other);
    return R;
  }

  /// \returns the inverse relation {<B,A> | <A,B> in this}.
  Relation inverse() const {
    Relation Inv(N);
    forEachPair([&](unsigned A, unsigned B) { Inv.set(B, A); });
    return Inv;
  }

  /// \returns the relational composition this ; Other.
  Relation compose(const Relation &Other) const {
    assert(N == Other.N && "universe mismatch");
    Relation Result(N);
    for (unsigned A = 0; A < N; ++A)
      bits::forEach(Rows[A],
                    [&](unsigned B) { Result.Rows[A] |= Other.Rows[B]; });
    return Result;
  }

  /// \returns the transitive closure (this)+.
  Relation transitiveClosure() const {
    // Warshall's algorithm on bit rows: if <A,K> then A reaches everything
    // K reaches. Branch-free: the bit test is data-dependent, and the
    // branching loop ran up to 2x slower in the per-byte ARMv8 coherence
    // check. Row K is fixed during step K (it only ORs itself in).
    Relation Closure = *this;
    for (unsigned K = 0; K < N; ++K) {
      uint64_t Reach = Closure.Rows[K];
      for (unsigned A = 0; A < N; ++A)
        Closure.Rows[A] |= Reach & (0 - ((Closure.Rows[A] >> K) & 1));
    }
    return Closure;
  }

  /// \returns the reflexive transitive closure (this)*.
  Relation reflexiveTransitiveClosure() const {
    Relation Closure = transitiveClosure();
    for (unsigned A = 0; A < N; ++A)
      Closure.set(A, A);
    return Closure;
  }

  /// \returns true if no element is related to itself.
  bool isIrreflexive() const {
    for (unsigned A = 0; A < N; ++A)
      if (get(A, A))
        return false;
    return true;
  }

  /// \returns true if the transitive closure is irreflexive.
  bool isAcyclic() const { return transitiveClosure().isIrreflexive(); }

  /// \returns true if this relation is a strict total order on the elements
  /// of \p Universe, i.e. irreflexive, transitive, and total on Universe,
  /// and empty outside it.
  bool isStrictTotalOrderOn(const SetT &Universe) const {
    // Empty outside the universe.
    for (unsigned A = 0; A < N; ++A) {
      if (!bits::test(Universe, A) && Rows[A])
        return false;
      if (Rows[A] & ~Universe)
        return false;
    }
    if (!isIrreflexive())
      return false;
    if (!contains(compose(*this).restricted(Universe, Universe)))
      return false; // not transitive
    // Totality: every distinct pair in the universe is ordered one way.
    for (unsigned A = 0; A < N; ++A) {
      if (!bits::test(Universe, A))
        continue;
      for (unsigned B = A + 1; B < N; ++B) {
        if (!bits::test(Universe, B))
          continue;
        if (!get(A, B) && !get(B, A))
          return false;
      }
    }
    return true;
  }

  /// \returns true if every pair of \p Other is also in this relation.
  bool contains(const Relation &Other) const {
    assert(N == Other.N && "universe mismatch");
    for (unsigned I = 0; I < N; ++I)
      if (Other.Rows[I] & ~Rows[I])
        return false;
    return true;
  }

  /// \returns the full product relation SetA x SetB over a universe of
  /// \p Size elements.
  static Relation product(const SetT &SetA, const SetT &SetB,
                          unsigned Size) {
    Relation R(Size);
    SetT Mask = fullSet(Size);
    SetT B = SetB & Mask;
    bits::forEach(SetA & Mask, [&](unsigned I) { R.Rows[I] = B; });
    return R;
  }

  /// \returns [SetA] ; this ; [SetB]: the pairs <A,B> with A in SetA and B
  /// in SetB.
  Relation restricted(const SetT &SetA, const SetT &SetB) const {
    Relation R(N);
    for (unsigned A = 0; A < N; ++A)
      if (bits::test(SetA, A))
        R.Rows[A] = Rows[A] & SetB;
    return R;
  }

  /// \returns the identity relation on \p Universe over \p Size elements.
  static Relation identity(const SetT &Universe, unsigned Size) {
    Relation R(Size);
    for (unsigned A = 0; A < Size; ++A)
      if (bits::test(Universe, A))
        R.set(A, A);
    return R;
  }

  bool operator==(const Relation &Other) const {
    return N == Other.N &&
           std::equal(Rows.begin(), Rows.begin() + N, Other.Rows.begin());
  }
  bool operator!=(const Relation &Other) const { return !(*this == Other); }

  /// Invokes \p Fn(A, B) for every pair <A,B> in the relation.
  template <typename FnT> void forEachPair(FnT Fn) const {
    for (unsigned A = 0; A < N; ++A)
      bits::forEach(Rows[A], [&](unsigned B) { Fn(A, B); });
  }

  /// \returns all pairs of the relation in row-major order.
  std::vector<std::pair<unsigned, unsigned>> pairs() const {
    std::vector<std::pair<unsigned, unsigned>> Result;
    forEachPair([&](unsigned A, unsigned B) { Result.emplace_back(A, B); });
    return Result;
  }

  /// \returns some topological order of the universe consistent with this
  /// relation, or std::nullopt if the relation is cyclic (in which case no
  /// such order exists). Callers must handle the nullopt branch — release
  /// builds previously received a silently truncated order here.
  std::optional<std::vector<unsigned>> topologicalOrder() const {
    std::vector<unsigned> InDegree(N, 0);
    forEachPair([&](unsigned, unsigned B) { ++InDegree[B]; });
    std::vector<unsigned> Ready;
    for (unsigned A = 0; A < N; ++A)
      if (InDegree[A] == 0)
        Ready.push_back(A);
    std::vector<unsigned> Order;
    Order.reserve(N);
    while (!Ready.empty()) {
      // Pop the smallest ready element for determinism.
      auto MinIt = std::min_element(Ready.begin(), Ready.end());
      unsigned A = *MinIt;
      Ready.erase(MinIt);
      Order.push_back(A);
      bits::forEach(Rows[A], [&](unsigned B) {
        if (--InDegree[B] == 0)
          Ready.push_back(B);
      });
    }
    if (Order.size() != N)
      return std::nullopt; // a cycle kept some element's in-degree positive
    return Order;
  }

  /// \returns a human-readable "{<0,1>, <2,3>}" rendering for debugging.
  std::string toString() const { return detail::renderRelation(pairs()); }

private:
  unsigned N;
  std::array<uint64_t, MaxSize> Rows;
};

/// The single-word flavour of totalOrderOver (support/DynRelation.h), kept
/// under its historical name.
Relation totalOrderFromSequence(const std::vector<unsigned> &Order,
                                unsigned Size);

} // namespace jsmm

#endif // JSMM_SUPPORT_RELATION_H
