//===- support/Relation.cpp -----------------------------------------------===//
///
/// \file
/// The out-of-line pieces of the relation layer: the loops over rows of
/// several words, the capacity failure (a typed CapacityError) and the
/// debug renderer. Acyclicity and transitive closure, cubic as Warshall
/// loops at these sizes, run as one depth-first search over the bit rows.
///
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

#include "support/CapacityError.h"

using namespace jsmm;

void jsmm::detail::relationUniverseTooLarge(unsigned Size, unsigned MaxSize) {
  throw CapacityError("relation universe too large (" +
                      std::to_string(Size) + " elements > " +
                      std::to_string(MaxSize) + ")");
}

BitSet Relation::columnWide(unsigned B) const {
  BitSet Col(N);
  for (unsigned A = 0; A < N; ++A)
    if (get(A, B))
      bits::set(Col, A);
  return Col;
}

Relation Relation::composeWide(const Relation &Other) const {
  Relation Result(N);
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

template <typename FnT> bool Relation::postOrder(FnT Finish) const {
  // Each frame scans its element's row one word at a time, with finished
  // elements masked out; the word cursor only moves past a word whose
  // targets have all finished, so every edge is checked once.
  struct Frame {
    unsigned Elem;
    unsigned Word;
  };
  BitSet Done(N), OnStack(N);
  uint64_t *DoneW = Done.data(), *OnStackW = OnStack.data();
  std::vector<Frame> Stack;
  for (unsigned Root = 0; Root < N; ++Root) {
    if (bits::test(Done, Root))
      continue;
    bits::set(OnStack, Root);
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      const uint64_t *Row = &Rows[size_t(F.Elem) * WPR];
      uint64_t Open = 0;
      while (F.Word < WPR && !(Open = Row[F.Word] & ~DoneW[F.Word]))
        ++F.Word;
      if (F.Word == WPR) {
        unsigned A = F.Elem;
        Stack.pop_back();
        bits::clear(OnStack, A);
        bits::set(Done, A);
        Finish(A);
        continue;
      }
      if (Open & OnStackW[F.Word])
        return false;
      unsigned B = F.Word * 64 + static_cast<unsigned>(__builtin_ctzll(Open));
      bits::set(OnStack, B);
      Stack.push_back({B, 0});
    }
  }
  return true;
}

bool Relation::acyclicWide() const {
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
[[gnu::aligned(64)]] Relation Relation::closureWide() const {
  Relation Closure(N);
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

bool Relation::isStrictTotalOrderOn(const BitSet &Universe) const {
  assert(Universe.universeBits() == N && "set universe mismatch");
  // Empty outside the universe.
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

std::vector<std::pair<unsigned, unsigned>> Relation::pairs() const {
  std::vector<std::pair<unsigned, unsigned>> Result;
  forEachPair([&](unsigned A, unsigned B) { Result.emplace_back(A, B); });
  return Result;
}

std::optional<std::vector<unsigned>> Relation::topologicalOrder() const {
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
    for (unsigned K = 0; K < WPR; ++K)
      for (uint64_t Word = Rows[size_t(A) * WPR + K]; Word; Word &= Word - 1) {
        unsigned B = K * 64 + static_cast<unsigned>(__builtin_ctzll(Word));
        if (--InDegree[B] == 0)
          Ready.push_back(B);
      }
  }
  if (Order.size() != N)
    return std::nullopt; // a cycle kept some element's in-degree positive
  return Order;
}

std::string Relation::toString() const {
  std::string Out = "{";
  forEachPair([&](unsigned A, unsigned B) {
    if (Out.size() > 1)
      Out += ", ";
    Out += '<';
    Out += std::to_string(A);
    Out += ',';
    Out += std::to_string(B);
    Out += '>';
  });
  Out += "}";
  return Out;
}

Relation jsmm::totalOrderOver(const std::vector<unsigned> &Order,
                              unsigned Size) {
  Relation R(Size);
  BitSet After(Size);
  for (size_t I = Order.size(); I-- > 0;) {
    R.assignRow(Order[I], After);
    bits::set(After, Order[I]);
  }
  return R;
}
