//===- support/DynRelation.h - Heap-backed dynamic-universe relations -----===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The large-program tier of the relation layer: a binary relation whose
/// universe size is chosen at construction time (up to DynRelation::MaxSize
/// events) with heap-backed rows, plus DynSet, the matching runtime-width
/// event-set type. DynRelation implements the exact interface of
/// Relation (support/Relation.h), so the templated model code —
/// candidate executions, validity, the tot solvers, the target models, the
/// engine's justifiers — instantiates identically over either flavour. The
/// engine selects this tier automatically when a program's event upper
/// bound exceeds Relation::MaxSize (64); small programs never touch it, so
/// the allocation-free fast path keeps its codegen.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_DYNRELATION_H
#define JSMM_SUPPORT_DYNRELATION_H

#include "support/Relation.h"

#include <vector>

namespace jsmm {

/// A heap-backed bit set over a universe fixed at construction. The set
/// type of DynRelation: carries its universe size, so complements stay
/// well-defined (no garbage tail bits).
class DynSet {
public:
  DynSet() = default;
  explicit DynSet(unsigned Bits)
      : NBits(Bits), Ws((Bits + 63) / 64, 0) {}

  unsigned universeBits() const { return NBits; }
  unsigned words() const { return static_cast<unsigned>(Ws.size()); }
  uint64_t word(unsigned K) const { return Ws[K]; }
  uint64_t *data() { return Ws.data(); }
  const uint64_t *data() const { return Ws.data(); }

  friend DynSet operator|(DynSet A, const DynSet &B) {
    A |= B;
    return A;
  }
  friend DynSet operator&(DynSet A, const DynSet &B) {
    A &= B;
    return A;
  }
  friend DynSet operator~(DynSet A) {
    for (size_t K = 0; K < A.Ws.size(); ++K)
      A.Ws[K] = ~A.Ws[K];
    A.maskTail();
    return A;
  }
  DynSet &operator|=(const DynSet &B) {
    assert(NBits == B.NBits && "set universe mismatch");
    for (size_t K = 0; K < Ws.size(); ++K)
      Ws[K] |= B.Ws[K];
    return *this;
  }
  DynSet &operator&=(const DynSet &B) {
    assert(NBits == B.NBits && "set universe mismatch");
    for (size_t K = 0; K < Ws.size(); ++K)
      Ws[K] &= B.Ws[K];
    return *this;
  }
  bool operator==(const DynSet &B) const {
    return NBits == B.NBits && Ws == B.Ws;
  }
  bool operator!=(const DynSet &B) const { return !(*this == B); }

private:
  void maskTail() {
    if (NBits % 64 && !Ws.empty())
      Ws.back() &= (uint64_t(1) << (NBits % 64)) - 1;
  }

  unsigned NBits = 0;
  std::vector<uint64_t> Ws;
};

namespace bits {

inline bool test(const DynSet &S, unsigned I) {
  assert(I < S.universeBits() && "bit out of range");
  return (S.data()[I / 64] >> (I % 64)) & 1;
}
inline void set(DynSet &S, unsigned I) {
  assert(I < S.universeBits() && "bit out of range");
  S.data()[I / 64] |= uint64_t(1) << (I % 64);
}
inline void clear(DynSet &S, unsigned I) {
  assert(I < S.universeBits() && "bit out of range");
  S.data()[I / 64] &= ~(uint64_t(1) << (I % 64));
}
inline bool any(const DynSet &S) {
  for (unsigned K = 0; K < S.words(); ++K)
    if (S.word(K))
      return true;
  return false;
}
inline unsigned count(const DynSet &S) {
  unsigned Total = 0;
  for (unsigned K = 0; K < S.words(); ++K)
    Total += static_cast<unsigned>(__builtin_popcountll(S.word(K)));
  return Total;
}
template <typename FnT> inline void forEach(const DynSet &S, FnT Fn) {
  for (unsigned K = 0; K < S.words(); ++K)
    for (uint64_t Word = S.word(K); Word;) {
      unsigned I = static_cast<unsigned>(__builtin_ctzll(Word));
      Word &= Word - 1;
      Fn(K * 64 + I);
    }
}
template <typename FnT> inline bool forEachWhile(const DynSet &S, FnT Fn) {
  for (unsigned K = 0; K < S.words(); ++K)
    for (uint64_t Word = S.word(K); Word;) {
      unsigned I = static_cast<unsigned>(__builtin_ctzll(Word));
      Word &= Word - 1;
      if (!Fn(K * 64 + I))
        return false;
    }
  return true;
}

} // namespace bits

/// A binary relation over a dynamic universe, heap-backed. Same interface
/// and semantics as Relation; see the file comment for when the
/// engine selects it.
class DynRelation {
public:
  /// The serving cap of the dynamic tier. Programs beyond this stay
  /// `too-large`: the cap bounds worst-case memory (a relation is
  /// N·ceil(N/64) words) and keeps enumeration latency inside what a batch
  /// service can reasonably serve. Raise deliberately, with benchmarks.
  /// Raised 256 -> 1024; the propagation tot solver answers every size
  /// up to it, and the bench floor `dyn_events_max` pins the served
  /// program size. A 1024-event relation is 16 KiB — still cheap enough
  /// to memoize per candidate.
  static constexpr unsigned MaxSize = 1024;

  using SetT = DynSet;
  using SetArray = std::vector<DynSet>;

  DynRelation() = default;

  explicit DynRelation(unsigned Size) : N(Size), WPR((Size + 63) / 64) {
    // Check before allocating: an oversized universe must fail with the
    // typed CapacityError, never the allocator's bad_alloc/length_error
    // (which the service would misclassify as an internal error).
    if (Size > MaxSize)
      detail::relationUniverseTooLarge(Size, MaxSize);
    Rows.assign(size_t(Size) * WPR, 0);
  }

  unsigned size() const { return N; }

  bool get(unsigned A, unsigned B) const {
    assert(A < N && B < N && "element out of range");
    return (Rows[size_t(A) * WPR + B / 64] >> (B % 64)) & 1;
  }
  void set(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    Rows[size_t(A) * WPR + B / 64] |= uint64_t(1) << (B % 64);
  }
  void clear(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    Rows[size_t(A) * WPR + B / 64] &= ~(uint64_t(1) << (B % 64));
  }

  static DynSet emptySet(unsigned Size) { return DynSet(Size); }
  static DynSet fullSet(unsigned Size) {
    DynSet S(Size);
    for (unsigned I = 0; I < Size; ++I)
      bits::set(S, I);
    return S;
  }

  DynSet row(unsigned A) const;
  /// Replaces the successor set of \p A with \p S (a set over size()).
  void assignRow(unsigned A, const DynSet &S);
  /// An O(n) strided walk down every row. A loop that needs many
  /// predecessor sets should read the rows of one inverse() instead.
  DynSet column(unsigned B) const;

  bool empty() const;
  unsigned count() const;

  DynRelation &unionWith(const DynRelation &Other);
  DynRelation &intersectWith(const DynRelation &Other);
  DynRelation &subtract(const DynRelation &Other);

  DynRelation unioned(const DynRelation &Other) const {
    DynRelation R = *this;
    R.unionWith(Other);
    return R;
  }
  DynRelation intersected(const DynRelation &Other) const {
    DynRelation R = *this;
    R.intersectWith(Other);
    return R;
  }
  DynRelation subtracted(const DynRelation &Other) const {
    DynRelation R = *this;
    R.subtract(Other);
    return R;
  }

  DynRelation inverse() const;
  DynRelation compose(const DynRelation &Other) const;
  DynRelation transitiveClosure() const;
  DynRelation reflexiveTransitiveClosure() const;

  bool isIrreflexive() const;
  /// \returns true if the relation has no cycle (a self-loop is one).
  /// An iterative depth-first search over the bit rows: O(n·n/64) time
  /// and no n×n temporary.
  bool isAcyclic() const;
  bool isStrictTotalOrderOn(const DynSet &Universe) const;
  bool contains(const DynRelation &Other) const;

  static DynRelation product(const DynSet &SetA, const DynSet &SetB,
                             unsigned Size);
  DynRelation restricted(const DynSet &SetA, const DynSet &SetB) const;
  static DynRelation identity(const DynSet &Universe, unsigned Size);

  bool operator==(const DynRelation &Other) const {
    return N == Other.N && Rows == Other.Rows;
  }
  bool operator!=(const DynRelation &Other) const {
    return !(*this == Other);
  }

  template <typename FnT> void forEachPair(FnT Fn) const {
    for (unsigned A = 0; A < N; ++A)
      for (unsigned K = 0; K < WPR; ++K)
        for (uint64_t Word = Rows[size_t(A) * WPR + K]; Word;) {
          unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
          Word &= Word - 1;
          Fn(A, B);
        }
  }

  std::vector<std::pair<unsigned, unsigned>> pairs() const;
  std::optional<std::vector<unsigned>> topologicalOrder() const;
  std::string toString() const;

private:
  /// Depth-first search over the rows from every root in index order,
  /// calling \p Finish on each element in post-order: when an element
  /// finishes, all its successors have finished. \returns false, and
  /// stops, at the first edge into an element still on the search stack
  /// (a cycle).
  template <typename FnT> bool postOrder(FnT Finish) const;

  unsigned N = 0;
  unsigned WPR = 0; ///< words per row: ceil(N / 64)
  std::vector<uint64_t> Rows;
};

/// Builds the relation {<Order[i], Order[j]> | i < j} over \p Size elements
/// of relation type \p RelT: the strict total order corresponding to the
/// sequence \p Order. Elements not mentioned in \p Order are unrelated.
/// One row assignment per element, O(n · words): walking the sequence
/// backwards, each element's row is the set of elements after it. (A
/// repeated element keeps the row of its first occurrence, the largest,
/// as the pairwise definition does.) Defined here, not in Relation.h,
/// because it needs the bits:: operations of both set types.
template <typename RelT>
RelT totalOrderOver(const std::vector<unsigned> &Order, unsigned Size) {
  RelT R(Size);
  typename RelT::SetT After = RelT::emptySet(Size);
  for (size_t I = Order.size(); I-- > 0;) {
    R.assignRow(Order[I], After);
    bits::set(After, Order[I]);
  }
  return R;
}

} // namespace jsmm

#endif // JSMM_SUPPORT_DYNRELATION_H
