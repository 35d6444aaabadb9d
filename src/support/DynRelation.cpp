//===- support/DynRelation.cpp --------------------------------------------===//
///
/// \file
/// Heap-backed relation algebra: the same operations as Relation
/// (support/Relation.h), over a word count chosen at construction.
/// Acyclicity and transitive closure, cubic as Warshall loops at this
/// size, run as one depth-first search over the bit rows instead.
///
//===----------------------------------------------------------------------===//

#include "support/DynRelation.h"

#include <algorithm>

using namespace jsmm;

DynSet DynRelation::row(unsigned A) const {
  assert(A < N && "element out of range");
  DynSet S(N);
  std::copy_n(Rows.begin() + size_t(A) * WPR, WPR, S.data());
  return S;
}

void DynRelation::assignRow(unsigned A, const DynSet &S) {
  assert(A < N && S.universeBits() == N && "row out of range");
  std::copy_n(S.data(), WPR, Rows.begin() + size_t(A) * WPR);
}

DynSet DynRelation::column(unsigned B) const {
  assert(B < N && "element out of range");
  DynSet Col(N);
  for (unsigned A = 0; A < N; ++A)
    if (get(A, B))
      bits::set(Col, A);
  return Col;
}

bool DynRelation::empty() const {
  for (uint64_t Word : Rows)
    if (Word)
      return false;
  return true;
}

unsigned DynRelation::count() const {
  unsigned Count = 0;
  for (uint64_t Word : Rows)
    Count += static_cast<unsigned>(__builtin_popcountll(Word));
  return Count;
}

DynRelation &DynRelation::unionWith(const DynRelation &Other) {
  assert(N == Other.N && "universe mismatch");
  for (size_t I = 0; I < Rows.size(); ++I)
    Rows[I] |= Other.Rows[I];
  return *this;
}

DynRelation &DynRelation::intersectWith(const DynRelation &Other) {
  assert(N == Other.N && "universe mismatch");
  for (size_t I = 0; I < Rows.size(); ++I)
    Rows[I] &= Other.Rows[I];
  return *this;
}

DynRelation &DynRelation::subtract(const DynRelation &Other) {
  assert(N == Other.N && "universe mismatch");
  for (size_t I = 0; I < Rows.size(); ++I)
    Rows[I] &= ~Other.Rows[I];
  return *this;
}

DynRelation DynRelation::inverse() const {
  DynRelation Inv(N);
  forEachPair([&](unsigned A, unsigned B) { Inv.set(B, A); });
  return Inv;
}

DynRelation DynRelation::compose(const DynRelation &Other) const {
  assert(N == Other.N && "universe mismatch");
  DynRelation Result(N);
  for (unsigned A = 0; A < N; ++A)
    for (unsigned K = 0; K < WPR; ++K)
      for (uint64_t Word = Rows[size_t(A) * WPR + K]; Word;) {
        unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
        Word &= Word - 1;
        for (unsigned J = 0; J < WPR; ++J)
          Result.Rows[size_t(A) * WPR + J] |= Other.Rows[size_t(B) * WPR + J];
      }
  return Result;
}

template <typename FnT> bool DynRelation::postOrder(FnT Finish) const {
  // Each frame scans its element's row one word at a time, with finished
  // elements masked out; the word cursor only moves past a word whose
  // targets have all finished, so every edge is checked once.
  struct Frame {
    unsigned Elem;
    unsigned Word;
  };
  std::vector<uint64_t> Done(WPR, 0), OnStack(WPR, 0);
  std::vector<Frame> Stack;
  for (unsigned Root = 0; Root < N; ++Root) {
    if ((Done[Root / 64] >> (Root % 64)) & 1)
      continue;
    OnStack[Root / 64] |= uint64_t(1) << (Root % 64);
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      const uint64_t *Row = &Rows[size_t(F.Elem) * WPR];
      uint64_t Open = 0;
      while (F.Word < WPR && !(Open = Row[F.Word] & ~Done[F.Word]))
        ++F.Word;
      if (F.Word == WPR) {
        unsigned A = F.Elem;
        Stack.pop_back();
        OnStack[A / 64] &= ~(uint64_t(1) << (A % 64));
        Done[A / 64] |= uint64_t(1) << (A % 64);
        Finish(A);
        continue;
      }
      if (Open & OnStack[F.Word])
        return false;
      unsigned B = F.Word * 64 + static_cast<unsigned>(__builtin_ctzll(Open));
      OnStack[B / 64] |= uint64_t(1) << (B % 64);
      Stack.push_back({B, 0});
    }
  }
  return true;
}

bool DynRelation::isAcyclic() const {
  return postOrder([](unsigned) {});
}

// Most closures the models take are of acyclic relations (po, hb, the
// forced part of a tot), which close in post-order: every successor's row
// is final before its predecessors read it, and a successor already in
// the row from an earlier successor's closure adds nothing. A po-shaped
// relation then closes in about O(n·n/64). Only a cyclic relation pays
// the O(n³/64) Warshall loop. The function starts on a cache line so its
// speed does not depend on how much unrelated code the linker places
// before it: when the Warshall loop served every closure, unaligned
// placements measured up to 20% slower on the perfbench `large` workload
// (4-core Xeon, Release build).
[[gnu::aligned(64)]] DynRelation DynRelation::transitiveClosure() const {
  DynRelation Closure(N);
  bool Acyclic = postOrder([&](unsigned A) {
    uint64_t *Out = &Closure.Rows[size_t(A) * WPR];
    const uint64_t *In = &Rows[size_t(A) * WPR];
    for (unsigned K = 0; K < WPR; ++K)
      for (uint64_t Word = In[K]; Word;) {
        unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
        Word &= Word - 1;
        if ((Out[K] >> (B % 64)) & 1)
          continue;
        const uint64_t *Succ = &Closure.Rows[size_t(B) * WPR];
        for (unsigned J = 0; J < WPR; ++J)
          Out[J] |= Succ[J];
      }
    for (unsigned K = 0; K < WPR; ++K)
      Out[K] |= In[K];
  });
  if (Acyclic)
    return Closure;
  Closure = *this;
  for (unsigned K = 0; K < N; ++K)
    for (unsigned A = 0; A < N; ++A)
      if (Closure.get(A, K))
        for (unsigned J = 0; J < WPR; ++J)
          Closure.Rows[size_t(A) * WPR + J] |=
              Closure.Rows[size_t(K) * WPR + J];
  return Closure;
}

DynRelation DynRelation::reflexiveTransitiveClosure() const {
  DynRelation Closure = transitiveClosure();
  for (unsigned A = 0; A < N; ++A)
    Closure.set(A, A);
  return Closure;
}

bool DynRelation::isIrreflexive() const {
  for (unsigned A = 0; A < N; ++A)
    if (get(A, A))
      return false;
  return true;
}

bool DynRelation::isStrictTotalOrderOn(const DynSet &Universe) const {
  for (unsigned A = 0; A < N; ++A) {
    bool InUniverse = bits::test(Universe, A);
    for (unsigned K = 0; K < WPR; ++K) {
      uint64_t RowWord = Rows[size_t(A) * WPR + K];
      if (!InUniverse && RowWord)
        return false;
      if (RowWord & ~Universe.word(K))
        return false;
    }
  }
  if (!isIrreflexive())
    return false;
  if (!contains(compose(*this).restricted(Universe, Universe)))
    return false; // not transitive
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

bool DynRelation::contains(const DynRelation &Other) const {
  assert(N == Other.N && "universe mismatch");
  for (size_t I = 0; I < Rows.size(); ++I)
    if (Other.Rows[I] & ~Rows[I])
      return false;
  return true;
}

DynRelation DynRelation::product(const DynSet &SetA, const DynSet &SetB,
                                 unsigned Size) {
  DynRelation R(Size);
  DynSet Mask = fullSet(Size);
  DynSet A = SetA;
  A &= Mask;
  DynSet B = SetB;
  B &= Mask;
  bits::forEach(A, [&](unsigned I) {
    for (unsigned K = 0; K < R.WPR; ++K)
      R.Rows[size_t(I) * R.WPR + K] = B.word(K);
  });
  return R;
}

DynRelation DynRelation::restricted(const DynSet &SetA,
                                    const DynSet &SetB) const {
  DynRelation R(N);
  for (unsigned A = 0; A < N; ++A)
    if (bits::test(SetA, A))
      for (unsigned K = 0; K < WPR; ++K)
        R.Rows[size_t(A) * WPR + K] = Rows[size_t(A) * WPR + K] & SetB.word(K);
  return R;
}

DynRelation DynRelation::identity(const DynSet &Universe, unsigned Size) {
  DynRelation R(Size);
  for (unsigned A = 0; A < Size; ++A)
    if (bits::test(Universe, A))
      R.set(A, A);
  return R;
}

std::vector<std::pair<unsigned, unsigned>> DynRelation::pairs() const {
  std::vector<std::pair<unsigned, unsigned>> Result;
  forEachPair([&](unsigned A, unsigned B) { Result.emplace_back(A, B); });
  return Result;
}

std::optional<std::vector<unsigned>> DynRelation::topologicalOrder() const {
  std::vector<unsigned> InDegree(N, 0);
  forEachPair([&](unsigned, unsigned B) { ++InDegree[B]; });
  std::vector<unsigned> Ready;
  for (unsigned A = 0; A < N; ++A)
    if (InDegree[A] == 0)
      Ready.push_back(A);
  std::vector<unsigned> Order;
  Order.reserve(N);
  while (!Ready.empty()) {
    auto MinIt = std::min_element(Ready.begin(), Ready.end());
    unsigned A = *MinIt;
    Ready.erase(MinIt);
    Order.push_back(A);
    for (unsigned K = 0; K < WPR; ++K)
      for (uint64_t Word = Rows[size_t(A) * WPR + K]; Word;) {
        unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
        Word &= Word - 1;
        if (--InDegree[B] == 0)
          Ready.push_back(B);
      }
  }
  if (Order.size() != N)
    return std::nullopt; // a cycle kept some element's in-degree positive
  return Order;
}

std::string DynRelation::toString() const {
  return detail::renderRelation(pairs());
}
