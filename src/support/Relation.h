//===- support/Relation.h - Binary relations over event universes --------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary relations over a universe chosen at construction (up to
/// Relation::MaxSize elements), stored as bit matrices. Every derived
/// relation of every model (sequenced-before, happens-before, ordered-before,
/// the target architectures' ppo and ob, ...) is this type, manipulated with
/// standard relational algebra; event sets are BitSet (support/Bits.h).
///
/// A row is ceil(size()/64) words. A relation of at most 64 elements keeps
/// its rows inline, one word each, so building, copying and returning it
/// never allocates: the derived-relation pipelines create tens of
/// temporaries per candidate execution, millions of times per sweep.
/// Larger relations keep their rows on the heap. The one-word case has its
/// own header-inline paths for the hot operations (get, set, row, column,
/// compose, transitive closure, acyclicity); rows of several words run the
/// out-of-line loops in support/Relation.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_RELATION_H
#define JSMM_SUPPORT_RELATION_H

#include "support/Bits.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace jsmm {

namespace detail {
/// Fails a relation construction whose universe exceeds MaxSize by throwing
/// CapacityError("relation universe too large (N elements > MaxSize)").
/// Out-of-line so the header does not pull in <stdexcept>.
[[noreturn]] void relationUniverseTooLarge(unsigned Size, unsigned MaxSize);
} // namespace detail

/// A binary relation on {0, ..., size()-1} represented as a bit matrix.
/// Row A holds the successor set of A: bit B of row A is set iff <A,B> is in
/// the relation.
class Relation {
public:
  /// The serving cap. Programs beyond this stay `too-large`: the cap
  /// bounds worst-case memory (a relation is N·ceil(N/64) words, 128 KiB
  /// at the cap) and keeps enumeration latency inside what a batch service
  /// can reasonably serve. Raise deliberately, with benchmarks; the bench
  /// floor `dyn_events_max` pins the served program size.
  static constexpr unsigned MaxSize = BitSet::MaxBits;

  Relation() = default;

  /// Creates the empty relation over a universe of \p Size elements. A
  /// Size above MaxSize throws CapacityError before allocating (never the
  /// allocator's bad_alloc, which the service would misclassify as an
  /// internal error). Frontends validate event counts up front (see
  /// ExecutionEngine::capacityError), so a throwing construction marks a
  /// caller that skipped the check, never a user-input condition.
  explicit Relation(unsigned Size) {
    if (Size > MaxSize)
      detail::relationUniverseTooLarge(Size, MaxSize);
    resize(Size);
    std::fill_n(Rows, words(), 0);
  }

  Relation(const Relation &Other) {
    resize(Other.N);
    std::copy_n(Other.Rows, words(), Rows);
  }
  Relation(Relation &&Other) noexcept { *this = std::move(Other); }
  Relation &operator=(const Relation &Other) {
    if (this != &Other) {
      resize(Other.N);
      std::copy_n(Other.Rows, words(), Rows);
    }
    return *this;
  }
  Relation &operator=(Relation &&Other) noexcept {
    if (this == &Other)
      return *this;
    // Steal heap rows only when they hold the rows: a relation that shrank
    // keeps its heap storage but uses its inline words.
    if (Other.Rows != Other.Inline) {
      N = Other.N;
      WPR = Other.WPR;
      Heap = std::move(Other.Heap);
      HeapWords = Other.HeapWords;
      Rows = Heap.get();
      Other.N = Other.WPR = Other.HeapWords = 0;
      Other.Rows = Other.Inline;
    } else {
      resize(Other.N);
      std::copy_n(Other.Rows, words(), Rows);
    }
    return *this;
  }

  unsigned size() const { return N; }

  bool get(unsigned A, unsigned B) const {
    assert(A < N && B < N && "element out of range");
    return (word(A, B) >> (B % 64)) & 1;
  }
  void set(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    word(A, B) |= uint64_t(1) << (B % 64);
  }
  void clear(unsigned A, unsigned B) {
    assert(A < N && B < N && "element out of range");
    word(A, B) &= ~(uint64_t(1) << (B % 64));
  }

  /// \returns the empty set over a universe of \p Size elements.
  static BitSet emptySet(unsigned Size) { return BitSet(Size); }

  /// \returns the set of all elements {0, ..., Size-1}.
  static BitSet fullSet(unsigned Size) { return ~BitSet(Size); }

  /// \returns the successor set of \p A.
  BitSet row(unsigned A) const {
    assert(A < N && "element out of range");
    BitSet S(N);
    if (WPR == 1)
      S.data()[0] = Rows[A];
    else
      std::copy_n(Rows + size_t(A) * WPR, WPR, S.data());
    return S;
  }

  /// Replaces the successor set of \p A with \p S (a set over size()).
  void assignRow(unsigned A, const BitSet &S) {
    assert(A < N && S.universeBits() == N && "row out of range");
    std::copy_n(S.data(), WPR, Rows + size_t(A) * WPR);
  }

  /// Adds \p S (a set over size()) to the successor set of \p A.
  void uniteRow(unsigned A, const BitSet &S) {
    assert(A < N && S.universeBits() == N && "row out of range");
    for (unsigned K = 0; K < WPR; ++K)
      Rows[size_t(A) * WPR + K] |= S.word(K);
  }

  /// \returns the predecessor set of \p B: an O(n) strided walk down every
  /// row. A loop that needs many predecessor sets should read the rows of
  /// one inverse() instead.
  BitSet column(unsigned B) const {
    assert(B < N && "element out of range");
    return WPR == 1 ? columnNarrow(B) : columnWide(B);
  }

  bool empty() const {
    for (size_t I = 0, E = words(); I < E; ++I)
      if (Rows[I])
        return false;
    return true;
  }

  /// \returns the number of pairs in the relation.
  unsigned count() const {
    unsigned Count = 0;
    for (size_t I = 0, E = words(); I < E; ++I)
      Count += static_cast<unsigned>(__builtin_popcountll(Rows[I]));
    return Count;
  }

  Relation &unionWith(const Relation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0, E = words(); I < E; ++I)
      Rows[I] |= Other.Rows[I];
    return *this;
  }
  Relation &intersectWith(const Relation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0, E = words(); I < E; ++I)
      Rows[I] &= Other.Rows[I];
    return *this;
  }
  Relation &subtract(const Relation &Other) {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0, E = words(); I < E; ++I)
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
    return WPR == 1 ? composeNarrow(Other) : composeWide(Other);
  }

  /// \returns the transitive closure (this)+.
  Relation transitiveClosure() const {
    return WPR == 1 ? closureNarrow() : closureWide();
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

  /// \returns true if the relation has no cycle (a self-loop is one). On
  /// rows of several words this is an iterative depth-first search:
  /// O(n·n/64) time and no n×n temporary.
  bool isAcyclic() const {
    return WPR == 1 ? transitiveClosure().isIrreflexive() : acyclicWide();
  }

  /// \returns true if this relation is a strict total order on the elements
  /// of \p Universe, i.e. irreflexive, transitive, and total on Universe,
  /// and empty outside it.
  bool isStrictTotalOrderOn(const BitSet &Universe) const;

  /// \returns true if every pair of \p Other is also in this relation.
  bool contains(const Relation &Other) const {
    assert(N == Other.N && "universe mismatch");
    for (size_t I = 0, E = words(); I < E; ++I)
      if (Other.Rows[I] & ~Rows[I])
        return false;
    return true;
  }

  /// \returns the full product relation SetA x SetB over a universe of
  /// \p Size elements (the sets range over \p Size).
  static Relation product(const BitSet &SetA, const BitSet &SetB,
                          unsigned Size) {
    assert(SetA.universeBits() == Size && "set universe mismatch");
    Relation R(Size);
    bits::forEach(SetA, [&](unsigned I) { R.assignRow(I, SetB); });
    return R;
  }

  /// \returns [SetA] ; this ; [SetB]: the pairs <A,B> with A in SetA and B
  /// in SetB.
  Relation restricted(const BitSet &SetA, const BitSet &SetB) const {
    assert(SetA.universeBits() == N && SetB.universeBits() == N &&
           "set universe mismatch");
    Relation R(N);
    bits::forEach(SetA, [&](unsigned A) {
      for (unsigned K = 0; K < WPR; ++K)
        R.Rows[size_t(A) * WPR + K] = Rows[size_t(A) * WPR + K] & SetB.word(K);
    });
    return R;
  }

  /// \returns the identity relation on \p Universe over \p Size elements.
  static Relation identity(const BitSet &Universe, unsigned Size) {
    assert(Universe.universeBits() == Size && "set universe mismatch");
    Relation R(Size);
    bits::forEach(Universe, [&](unsigned A) { R.set(A, A); });
    return R;
  }

  bool operator==(const Relation &Other) const {
    return N == Other.N && std::equal(Rows, Rows + words(), Other.Rows);
  }
  bool operator!=(const Relation &Other) const { return !(*this == Other); }

  /// Invokes \p Fn(A, B) for every pair <A,B> in the relation, in
  /// row-major order.
  template <typename FnT> void forEachPair(FnT Fn) const {
    if (WPR == 1) {
      for (unsigned A = 0; A < N; ++A)
        for (uint64_t Word = Rows[A]; Word; Word &= Word - 1)
          Fn(A, static_cast<unsigned>(__builtin_ctzll(Word)));
      return;
    }
    for (unsigned A = 0; A < N; ++A)
      for (unsigned K = 0; K < WPR; ++K)
        for (uint64_t Word = Rows[size_t(A) * WPR + K]; Word;) {
          unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
          Word &= Word - 1;
          Fn(A, B);
        }
  }

  /// \returns all pairs of the relation in row-major order.
  std::vector<std::pair<unsigned, unsigned>> pairs() const;

  /// \returns some topological order of the universe consistent with this
  /// relation (the smallest ready element first), or std::nullopt if the
  /// relation is cyclic, in which case no such order exists.
  std::optional<std::vector<unsigned>> topologicalOrder() const;

  /// \returns a human-readable "{<0,1>, <2,3>}" rendering for debugging.
  std::string toString() const;

private:
  /// Rows of at most this many words in total stay inline: every relation
  /// of at most 64 elements.
  static constexpr unsigned InlineWords = 64;

  size_t words() const { return size_t(N) * WPR; }

  /// The word of row \p A that holds element \p B; one-word rows skip the
  /// stride arithmetic.
  uint64_t &word(unsigned A, unsigned B) {
    return WPR == 1 ? Rows[A] : Rows[size_t(A) * WPR + B / 64];
  }
  uint64_t word(unsigned A, unsigned B) const {
    return WPR == 1 ? Rows[A] : Rows[size_t(A) * WPR + B / 64];
  }

  /// Sets the universe to \p Size elements, with storage for its rows
  /// (contents unspecified). Heap storage is reused when large enough.
  void resize(unsigned Size) {
    N = Size;
    WPR = (Size + 63) / 64;
    size_t Words = words();
    if (Words <= InlineWords) {
      Rows = Inline;
      return;
    }
    if (Words > HeapWords) {
      Heap.reset(new uint64_t[Words]);
      HeapWords = Words;
    }
    Rows = Heap.get();
  }

  // The one-word paths, each returning one named result (so it is built
  // in place), and their loops over rows of several words.
  BitSet columnNarrow(unsigned B) const {
    uint64_t Col = 0;
    for (unsigned A = 0; A < N; ++A)
      if ((Rows[A] >> B) & 1)
        Col |= uint64_t(1) << A;
    BitSet S(N);
    S.data()[0] = Col;
    return S;
  }
  Relation composeNarrow(const Relation &Other) const {
    Relation Result(N);
    for (unsigned A = 0; A < N; ++A)
      for (uint64_t Word = Rows[A]; Word; Word &= Word - 1)
        Result.Rows[A] |= Other.Rows[__builtin_ctzll(Word)];
    return Result;
  }
  Relation closureNarrow() const {
    // Warshall's algorithm: if <A,K> then A reaches everything K reaches.
    // Branch-free: the bit test is data-dependent, and the branching loop
    // ran up to 2x slower in the per-byte ARMv8 coherence check. Row K is
    // fixed during step K (it only ORs itself in).
    Relation Closure = *this;
    for (unsigned K = 0; K < N; ++K) {
      uint64_t Reach = Closure.Rows[K];
      for (unsigned A = 0; A < N; ++A)
        Closure.Rows[A] |= Reach & (0 - ((Closure.Rows[A] >> K) & 1));
    }
    return Closure;
  }
  BitSet columnWide(unsigned B) const;
  Relation composeWide(const Relation &Other) const;
  Relation closureWide() const;
  bool acyclicWide() const;

  /// Depth-first search over the rows from every root in index order,
  /// calling \p Finish on each element in post-order: when an element
  /// finishes, all its successors have finished. \returns false, and
  /// stops, at the first edge into an element still on the search stack
  /// (a cycle).
  template <typename FnT> bool postOrder(FnT Finish) const;

  unsigned N = 0;
  unsigned WPR = 0; ///< words per row: ceil(N / 64)
  uint64_t *Rows = Inline;
  std::unique_ptr<uint64_t[]> Heap;
  size_t HeapWords = 0;
  uint64_t Inline[InlineWords];
};

/// Builds the relation {<Order[i], Order[j]> | i < j} over \p Size
/// elements: the strict total order corresponding to the sequence \p Order.
/// Elements not mentioned in \p Order are unrelated. One row assignment per
/// element, O(n · words): walking the sequence backwards, each element's
/// row is the set of elements after it. (A repeated element keeps the row
/// of its first occurrence, the largest, as the pairwise definition does.)
Relation totalOrderOver(const std::vector<unsigned> &Order, unsigned Size);

} // namespace jsmm

#endif // JSMM_SUPPORT_RELATION_H
