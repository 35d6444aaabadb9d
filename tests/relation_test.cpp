//===- tests/relation_test.cpp - Relation algebra unit tests --------------===//

#include "solver/ClosedOrder.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/DynRelation.h"
#include "support/LinearExtensions.h"
#include "support/Relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>

using namespace jsmm;

TEST(Relation, EmptyRelationHasNoPairs) {
  Relation R(4);
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.count(), 0u);
  EXPECT_FALSE(R.get(0, 1));
}

TEST(Relation, SetAndClear) {
  Relation R(4);
  R.set(1, 2);
  EXPECT_TRUE(R.get(1, 2));
  EXPECT_FALSE(R.get(2, 1));
  EXPECT_EQ(R.count(), 1u);
  R.clear(1, 2);
  EXPECT_TRUE(R.empty());
}

TEST(Relation, RowAndColumn) {
  Relation R(4);
  R.set(0, 2);
  R.set(1, 2);
  R.set(2, 3);
  EXPECT_EQ(R.row(2), uint64_t(1) << 3);
  EXPECT_EQ(R.column(2), (uint64_t(1) << 0) | (uint64_t(1) << 1));
}

TEST(Relation, UnionIntersectSubtract) {
  Relation A(3), B(3);
  A.set(0, 1);
  A.set(1, 2);
  B.set(1, 2);
  B.set(2, 0);
  Relation U = A.unioned(B);
  EXPECT_EQ(U.count(), 3u);
  Relation I = A.intersected(B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.get(1, 2));
  Relation S = A.subtracted(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.get(0, 1));
}

TEST(Relation, Inverse) {
  Relation R(3);
  R.set(0, 2);
  R.set(1, 0);
  Relation Inv = R.inverse();
  EXPECT_TRUE(Inv.get(2, 0));
  EXPECT_TRUE(Inv.get(0, 1));
  EXPECT_EQ(Inv.count(), 2u);
}

TEST(Relation, Compose) {
  Relation A(4), B(4);
  A.set(0, 1);
  A.set(0, 2);
  B.set(1, 3);
  B.set(2, 3);
  Relation C = A.compose(B);
  EXPECT_TRUE(C.get(0, 3));
  EXPECT_EQ(C.count(), 1u);
}

TEST(Relation, TransitiveClosureChain) {
  Relation R(4);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 3);
  Relation C = R.transitiveClosure();
  EXPECT_TRUE(C.get(0, 3));
  EXPECT_TRUE(C.get(0, 2));
  EXPECT_TRUE(C.get(1, 3));
  EXPECT_EQ(C.count(), 6u);
}

TEST(Relation, ReflexiveTransitiveClosure) {
  Relation R(3);
  R.set(0, 1);
  Relation C = R.reflexiveTransitiveClosure();
  EXPECT_TRUE(C.get(0, 0));
  EXPECT_TRUE(C.get(1, 1));
  EXPECT_TRUE(C.get(2, 2));
  EXPECT_TRUE(C.get(0, 1));
}

TEST(Relation, AcyclicityDetection) {
  Relation R(3);
  R.set(0, 1);
  R.set(1, 2);
  EXPECT_TRUE(R.isAcyclic());
  R.set(2, 0);
  EXPECT_FALSE(R.isAcyclic());
}

TEST(Relation, SelfLoopIsCyclic) {
  Relation R(2);
  R.set(0, 0);
  EXPECT_FALSE(R.isIrreflexive());
  EXPECT_FALSE(R.isAcyclic());
}

TEST(Relation, StrictTotalOrderRecognition) {
  Relation R = totalOrderFromSequence({2, 0, 1}, 3);
  EXPECT_TRUE(R.isStrictTotalOrderOn(0b111));
  EXPECT_TRUE(R.get(2, 0));
  EXPECT_TRUE(R.get(2, 1));
  EXPECT_TRUE(R.get(0, 1));
  // Partial order is not total.
  Relation P(3);
  P.set(0, 1);
  EXPECT_FALSE(P.isStrictTotalOrderOn(0b111));
  // Total on a sub-universe.
  Relation Q(3);
  Q.set(0, 2);
  EXPECT_TRUE(Q.isStrictTotalOrderOn(0b101));
}

TEST(Relation, StrictTotalOrderRejectsOutsidePairs) {
  Relation R(3);
  R.set(0, 1);
  R.set(2, 0); // 2 is outside the universe below
  EXPECT_FALSE(R.isStrictTotalOrderOn(0b011));
}

TEST(Relation, ContainsAndEquality) {
  Relation A(3), B(3);
  A.set(0, 1);
  A.set(1, 2);
  B.set(0, 1);
  EXPECT_TRUE(A.contains(B));
  EXPECT_FALSE(B.contains(A));
  EXPECT_TRUE(A != B);
  B.set(1, 2);
  EXPECT_TRUE(A == B);
}

TEST(Relation, ProductAndRestrict) {
  Relation P = Relation::product(0b011, 0b100, 3);
  EXPECT_TRUE(P.get(0, 2));
  EXPECT_TRUE(P.get(1, 2));
  EXPECT_EQ(P.count(), 2u);
  Relation R(3);
  R.set(0, 1);
  R.set(0, 2);
  R.set(1, 2);
  Relation Res = R.restricted(0b001, 0b110);
  EXPECT_EQ(Res.count(), 2u);
  EXPECT_TRUE(Res.get(0, 1));
  EXPECT_TRUE(Res.get(0, 2));
}

TEST(Relation, IdentityOnUniverse) {
  Relation I = Relation::identity(0b101, 3);
  EXPECT_TRUE(I.get(0, 0));
  EXPECT_FALSE(I.get(1, 1));
  EXPECT_TRUE(I.get(2, 2));
}

TEST(Relation, TopologicalOrderRespectsEdges) {
  Relation R(4);
  R.set(3, 1);
  R.set(1, 0);
  R.set(2, 0);
  std::optional<std::vector<unsigned>> Order = R.topologicalOrder();
  ASSERT_TRUE(Order.has_value());
  ASSERT_EQ(Order->size(), 4u);
  std::vector<unsigned> Pos(4);
  for (unsigned I = 0; I < 4; ++I)
    Pos[(*Order)[I]] = I;
  EXPECT_LT(Pos[3], Pos[1]);
  EXPECT_LT(Pos[1], Pos[0]);
  EXPECT_LT(Pos[2], Pos[0]);
}

TEST(Relation, TopologicalOrderOnCyclicInputIsNullopt) {
  Relation R(3);
  R.set(0, 1);
  R.set(1, 2);
  R.set(2, 0);
  EXPECT_FALSE(R.topologicalOrder().has_value());
  // A self-loop is the smallest cycle.
  Relation Self(2);
  Self.set(1, 1);
  EXPECT_FALSE(Self.topologicalOrder().has_value());
  // Acyclic part of a partly-cyclic relation still has no order.
  Relation Mixed(4);
  Mixed.set(0, 1);
  Mixed.set(2, 3);
  Mixed.set(3, 2);
  EXPECT_FALSE(Mixed.topologicalOrder().has_value());
}

TEST(Relation, ConstructionBeyondMaxSizeThrowsInEveryBuildMode) {
  EXPECT_THROW(Relation R(Relation::MaxSize + 1), std::length_error);
  EXPECT_THROW(Relation R(1000), std::length_error);
  EXPECT_NO_THROW(Relation R(Relation::MaxSize));
  // totalOrderFromSequence goes through the checked constructor too.
  EXPECT_THROW(totalOrderFromSequence({0, 1}, Relation::MaxSize + 1),
               std::length_error);
}

TEST(Relation, PairsEnumeration) {
  Relation R(3);
  R.set(2, 1);
  R.set(0, 2);
  auto Pairs = R.pairs();
  ASSERT_EQ(Pairs.size(), 2u);
  EXPECT_EQ(Pairs[0], std::make_pair(0u, 2u));
  EXPECT_EQ(Pairs[1], std::make_pair(2u, 1u));
}

TEST(LinearExtensions, CountsForChainAndAntichain) {
  // A chain has exactly one linear extension.
  Relation Chain(3);
  Chain.set(0, 1);
  Chain.set(1, 2);
  EXPECT_EQ(countLinearExtensions(Chain, 0b111), 1u);
  // An antichain of n elements has n! extensions.
  Relation Empty(3);
  EXPECT_EQ(countLinearExtensions(Empty, 0b111), 6u);
}

TEST(LinearExtensions, VShapePoset) {
  // 0 < 2 and 1 < 2: two linear extensions.
  Relation R(3);
  R.set(0, 2);
  R.set(1, 2);
  EXPECT_EQ(countLinearExtensions(R, 0b111), 2u);
}

TEST(LinearExtensions, RespectsUniverseSubset) {
  Relation R(4);
  R.set(0, 1);
  // Only {0,1,3}: 3 extensions of a 2-chain plus a free element.
  EXPECT_EQ(countLinearExtensions(R, 0b1011), 3u);
}

TEST(LinearExtensions, CyclicOrderHasNoExtensions) {
  Relation R(2);
  R.set(0, 1);
  R.set(1, 0);
  EXPECT_EQ(countLinearExtensions(R, 0b11), 0u);
}

TEST(LinearExtensions, EarlyStop) {
  Relation Empty(4);
  uint64_t Seen = 0;
  bool Completed = forEachLinearExtension(
      Empty, 0b1111, [&](const std::vector<unsigned> &) {
        ++Seen;
        return Seen < 5;
      });
  EXPECT_FALSE(Completed);
  EXPECT_EQ(Seen, 5u);
}

TEST(LinearExtensions, SequencesAreValidExtensions) {
  Relation R(4);
  R.set(1, 0);
  R.set(2, 3);
  forEachLinearExtension(R, 0b1111, [&](const std::vector<unsigned> &Seq) {
    std::vector<unsigned> Pos(4);
    for (unsigned I = 0; I < 4; ++I)
      Pos[Seq[I]] = I;
    EXPECT_LT(Pos[1], Pos[0]);
    EXPECT_LT(Pos[2], Pos[3]);
    return true;
  });
  EXPECT_EQ(countLinearExtensions(R, 0b1111), 6u);
}

TEST(Relation, TotalOrderFromSequenceSubset) {
  Relation R = totalOrderFromSequence({3, 1}, 4);
  EXPECT_TRUE(R.get(3, 1));
  EXPECT_EQ(R.count(), 1u);
}

//===----------------------------------------------------------------------===//
// The dynamic-universe tier: the heap-backed DynRelation. The fixed and
// dynamic flavours must implement the same algebra, so most tests mirror
// an operation across tiers and compare pair sets.
//===----------------------------------------------------------------------===//

namespace {

/// Builds the same pseudo-random relation in two flavours and \returns
/// whether an operation agrees pair-for-pair.
template <typename RelA, typename RelB>
void expectSamePairs(const RelA &A, const RelB &B) {
  EXPECT_EQ(A.size(), B.size());
  EXPECT_EQ(A.pairs(), B.pairs());
}

template <typename RelT> RelT scatter(unsigned N, unsigned Seed) {
  RelT R(N);
  unsigned State = Seed;
  for (unsigned I = 0; I < 4 * N; ++I) {
    State = State * 1664525u + 1013904223u;
    unsigned A = (State >> 8) % N;
    unsigned B = (State >> 20) % N;
    if (A != B)
      R.set(A, B);
  }
  return R;
}

} // namespace

TEST(DynRelation, AlgebraMatchesRelation) {
  // 60 elements: within the single-word tier. Every operation must agree
  // between the inline flavour and the heap-backed one.
  constexpr unsigned N = 60;
  Relation W1 = scatter<Relation>(N, 7);
  Relation W2 = scatter<Relation>(N, 99);
  DynRelation D1 = scatter<DynRelation>(N, 7);
  DynRelation D2 = scatter<DynRelation>(N, 99);
  expectSamePairs(W1, D1);
  expectSamePairs(W1.unioned(W2), D1.unioned(D2));
  expectSamePairs(W1.intersected(W2), D1.intersected(D2));
  expectSamePairs(W1.subtracted(W2), D1.subtracted(D2));
  expectSamePairs(W1.compose(W2), D1.compose(D2));
  expectSamePairs(W1.inverse(), D1.inverse());
  expectSamePairs(W1.transitiveClosure(), D1.transitiveClosure());
  expectSamePairs(W1.reflexiveTransitiveClosure(),
                  D1.reflexiveTransitiveClosure());
  EXPECT_EQ(W1.isAcyclic(), D1.isAcyclic());
  EXPECT_EQ(W1.count(), D1.count());
  EXPECT_EQ(W1.column(50) == Relation::emptySet(N),
            D1.column(50) == DynRelation::emptySet(N));
}

TEST(DynRelation, HighBitOperationsBeyondSixtyFour) {
  DynRelation R(200);
  R.set(0, 150);
  R.set(150, 199);
  EXPECT_TRUE(R.get(0, 150));
  EXPECT_FALSE(R.get(150, 0));
  DynRelation Closed = R.transitiveClosure();
  EXPECT_TRUE(Closed.get(0, 199));
  EXPECT_TRUE(R.isAcyclic());
  DynSet Col = Closed.column(199);
  EXPECT_TRUE(bits::test(Col, 0));
  EXPECT_TRUE(bits::test(Col, 150));
  EXPECT_EQ(bits::count(Col), 2u);
  // Sets: complement stays inside the declared universe.
  DynSet Full = DynRelation::fullSet(200);
  EXPECT_EQ(bits::count(Full), 200u);
  EXPECT_EQ(bits::count(~Full), 0u);
  EXPECT_EQ(bits::count(~DynRelation::emptySet(200)), 200u);
}

TEST(DynRelation, TotalOrderAndLinearExtensions) {
  // totalOrderOver and the templated linear-extension machinery work on
  // the dynamic tier with high indices.
  std::vector<unsigned> Seq = {80, 3, 150};
  DynRelation R = totalOrderOver<DynRelation>(Seq, 151);
  EXPECT_TRUE(R.get(80, 3));
  EXPECT_TRUE(R.get(80, 150));
  EXPECT_TRUE(R.get(3, 150));
  EXPECT_EQ(R.count(), 3u);

  DynSet Universe(151);
  for (unsigned E : Seq)
    bits::set(Universe, E);
  uint64_t Count = countLinearExtensions(R, Universe);
  EXPECT_EQ(Count, 1u); // it is already a total order on the universe
}

TEST(DynRelation, TopologicalOrderOnLargeUniverses) {
  // The audited nullopt path of Relation::topologicalOrder (PR 4) holds
  // on the dynamic tier: a cycle across word boundaries is reported as
  // nullopt, never a truncated order.
  DynRelation Cyclic(120);
  Cyclic.set(10, 70);
  Cyclic.set(70, 115);
  Cyclic.set(115, 10);
  EXPECT_FALSE(Cyclic.topologicalOrder().has_value());

  Cyclic.clear(115, 10);
  std::optional<std::vector<unsigned>> Order = Cyclic.topologicalOrder();
  ASSERT_TRUE(Order.has_value());
  EXPECT_EQ(Order->size(), 120u);
  std::vector<unsigned> Pos(120);
  for (unsigned I = 0; I < Order->size(); ++I)
    Pos[(*Order)[I]] = I;
  EXPECT_LT(Pos[10], Pos[70]);
  EXPECT_LT(Pos[70], Pos[115]);

  // Self edge: also cyclic.
  DynRelation SelfEdge(100);
  SelfEdge.set(99, 99);
  EXPECT_FALSE(SelfEdge.topologicalOrder().has_value());
}

TEST(DynRelation, CapacityIsCheckedWithATypedError) {
  EXPECT_THROW(DynRelation R(DynRelation::MaxSize + 1), CapacityError);
  EXPECT_THROW(Relation R(Relation::MaxSize + 1), CapacityError);
  // CapacityError remains a std::length_error for legacy catch sites.
  EXPECT_THROW(DynRelation R(DynRelation::MaxSize + 1), std::length_error);
  DynRelation AtCap(DynRelation::MaxSize);
  EXPECT_EQ(AtCap.size(), DynRelation::MaxSize);
}

TEST(DynRelation, StrictTotalOrderOnSubsets) {
  DynRelation R = totalOrderOver<DynRelation>({100, 20, 90}, 128);
  DynSet Universe(128);
  bits::set(Universe, 100);
  bits::set(Universe, 20);
  bits::set(Universe, 90);
  EXPECT_TRUE(R.isStrictTotalOrderOn(Universe));
  bits::set(Universe, 5); // unordered element joins the universe
  EXPECT_FALSE(R.isStrictTotalOrderOn(Universe));
}

//===----------------------------------------------------------------------===//
// Property tests of the heap tier's depth-first acyclicity check and
// post-order closure, against a naive reference: a breadth-first search
// from every element over adjacency lists. Sizes sit on and around the
// 64-bit word boundaries, up to the serving cap.
//===----------------------------------------------------------------------===//

namespace {

const unsigned PropertySizes[] = {0, 1, 63, 64, 65, 128, 129, 500, 1024};

/// The transitive closure of \p R, computed without DynRelation's own
/// closure or search.
DynRelation referenceClosure(const DynRelation &R) {
  unsigned N = R.size();
  std::vector<std::vector<unsigned>> Succ(N);
  R.forEachPair([&](unsigned A, unsigned B) { Succ[A].push_back(B); });
  DynRelation Closure(N);
  std::vector<unsigned> Queue;
  std::vector<char> Seen(N);
  for (unsigned Src = 0; Src < N; ++Src) {
    std::fill(Seen.begin(), Seen.end(), 0);
    Queue.assign(Succ[Src].begin(), Succ[Src].end());
    for (unsigned B : Queue)
      Seen[B] = 1;
    for (size_t I = 0; I < Queue.size(); ++I)
      for (unsigned C : Succ[Queue[I]])
        if (!Seen[C]) {
          Seen[C] = 1;
          Queue.push_back(C);
        }
    for (unsigned B : Queue)
      Closure.set(Src, B);
  }
  return Closure;
}

/// Checks isAcyclic, transitiveClosure and reflexiveTransitiveClosure of
/// \p R against the reference; \p Acyclic is what the case was built as.
void expectMatchesReference(const DynRelation &R, bool Acyclic,
                            const std::string &Case) {
  SCOPED_TRACE(Case + ", n=" + std::to_string(R.size()));
  DynRelation Expected = referenceClosure(R);
  EXPECT_EQ(Expected.isIrreflexive(), Acyclic) << "malformed test case";
  EXPECT_EQ(R.isAcyclic(), Acyclic);
  EXPECT_TRUE(R.transitiveClosure() == Expected);
  for (unsigned A = 0; A < R.size(); ++A)
    Expected.set(A, A);
  EXPECT_TRUE(R.reflexiveTransitiveClosure() == Expected);
}

/// A random DAG over \p N elements whose topological order is a shuffle
/// of the ids, so search order differs from index order. Each element
/// gets up to three edges to elements later in that order. \p Order
/// receives the order.
template <typename RelT = DynRelation>
RelT shuffledDag(unsigned N, std::mt19937 &Rng,
                 std::vector<unsigned> &Order) {
  Order.resize(N);
  std::iota(Order.begin(), Order.end(), 0u);
  std::shuffle(Order.begin(), Order.end(), Rng);
  RelT R(N);
  for (unsigned I = 0; I + 1 < N; ++I)
    for (unsigned E = 0; E < 3; ++E) {
      unsigned J = I + 1 + static_cast<unsigned>(Rng() % (N - I - 1));
      R.set(Order[I], Order[J]);
    }
  return R;
}

/// Program order of \p Threads threads over \p N events, events of one
/// thread contiguous: each thread is a transitive chain.
DynRelation poChains(unsigned N, unsigned Threads) {
  DynRelation R(N);
  unsigned Per = (N + Threads - 1) / Threads;
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N && B / Per == A / Per; ++B)
      R.set(A, B);
  return R;
}

} // namespace

TEST(DynRelationProperty, ShuffledDagsMatchReference) {
  std::mt19937 Rng(17);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes)
    for (unsigned Trial = 0; Trial < 3; ++Trial)
      expectMatchesReference(shuffledDag(N, Rng, Order), true,
                             "shuffled DAG");
}

TEST(DynRelationProperty, BackEdgeInShuffledDagIsACycle) {
  std::mt19937 Rng(23);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes) {
    if (N < 2)
      continue;
    DynRelation R = shuffledDag(N, Rng, Order);
    // Close a cycle from some element back to one before it in order.
    unsigned J = 1 + static_cast<unsigned>(Rng() % (N - 1));
    unsigned I = static_cast<unsigned>(Rng() % J);
    R.set(Order[I], Order[J]);
    R.set(Order[J], Order[I]);
    expectMatchesReference(R, false, "shuffled DAG plus a back edge");
  }
}

TEST(DynRelationProperty, PoChainsMatchReference) {
  for (unsigned N : PropertySizes)
    for (unsigned Threads : {1u, 3u, 8u}) {
      if (Threads == 1 && N > 500)
        continue; // the reference is cubic on one long chain
      DynRelation Po = poChains(N, Threads);
      expectMatchesReference(Po, true, std::to_string(Threads) + " chains");
      // Program order is transitive already.
      EXPECT_TRUE(Po.transitiveClosure() == Po);
    }
}

TEST(DynRelationProperty, SelfLoopsAreCycles) {
  std::mt19937 Rng(29);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes) {
    if (N == 0)
      continue;
    DynRelation Alone(N);
    Alone.set(N - 1, N - 1);
    expectMatchesReference(Alone, false, "lone self-loop");
    DynRelation R = shuffledDag(N, Rng, Order);
    unsigned X = static_cast<unsigned>(Rng() % N);
    R.set(X, X);
    expectMatchesReference(R, false, "shuffled DAG plus a self-loop");
  }
}

TEST(DynRelationProperty, CyclesAcrossWordBoundaries) {
  for (unsigned N : PropertySizes) {
    if (N < 65)
      continue;
    DynRelation Po = poChains(N, 4);
    // Two elements in adjacent row words, and a longer cycle spanning
    // every word of the row.
    DynRelation Short = Po;
    Short.set(63, 64);
    Short.set(64, 63);
    expectMatchesReference(Short, false, "63 <-> 64");
    DynRelation Long = Po;
    for (unsigned A = 0; A + 64 < N; A += 64)
      Long.set(A, A + 64);
    Long.set(((N - 1) / 64) * 64, 0);
    expectMatchesReference(Long, false, "cycle through every word");
  }
}

TEST(DynRelationProperty, CycleReachableOnlyFromLateRoot) {
  std::mt19937 Rng(31);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes) {
    if (N < 3)
      continue;
    // A DAG over all but the last two elements, which form a cycle that
    // no earlier element reaches: only the search from a late root
    // finds it.
    DynRelation R(N);
    DynRelation Front = shuffledDag(N - 2, Rng, Order);
    Front.forEachPair([&](unsigned A, unsigned B) { R.set(A, B); });
    R.set(N - 1, N - 2);
    R.set(N - 2, N - 1);
    R.set(N - 2, 0); // the cycle may reach earlier elements
    expectMatchesReference(R, false, "cycle behind a late root");
  }
}

//===----------------------------------------------------------------------===//
// The propagation solver's order kernels on both tiers against
// column-reading references
//===----------------------------------------------------------------------===//

namespace {

/// lexSmallestExtension as a rescan: each step places the smallest
/// unplaced element of \p Universe with no unplaced strict predecessor,
/// read from the columns of \p Must.
template <typename RelT>
std::vector<unsigned> scanLexSmallestExtension(
    const RelT &Must, const typename RelT::SetT &Universe) {
  using SetT = typename RelT::SetT;
  std::vector<unsigned> Order;
  std::vector<SetT> Preds;
  for (unsigned B = 0; B < Must.size(); ++B)
    Preds.push_back(Must.column(B) & Universe);
  SetT Placed = RelT::emptySet(Must.size());
  while (Placed != Universe) {
    unsigned Picked = Must.size();
    for (unsigned E = 0; E < Must.size(); ++E) {
      if (!bits::test(Universe, E) || bits::test(Placed, E))
        continue;
      SetT Unplaced = Preds[E] & ~Placed;
      bits::clear(Unplaced, E);
      if (!bits::any(Unplaced)) {
        Picked = E;
        break;
      }
    }
    if (Picked == Must.size())
      break; // cyclic: the caller's contract is broken
    bits::set(Placed, Picked);
    Order.push_back(Picked);
  }
  return Order;
}

/// Each element of a universe of \p N with probability one half.
template <typename RelT>
typename RelT::SetT randomSubset(unsigned N, std::mt19937 &Rng) {
  typename RelT::SetT S = RelT::emptySet(N);
  for (unsigned E = 0; E < N; ++E)
    if (Rng() % 2)
      bits::set(S, E);
  return S;
}

/// Runs \p Check on sparse and transitively closed shuffled DAGs of
/// every size in \p Sizes, over the full universe and a strict subset.
template <typename RelT, typename FnT>
void forEachOrderCase(std::initializer_list<unsigned> Sizes, unsigned Seed,
                      FnT Check) {
  std::mt19937 Rng(Seed);
  std::vector<unsigned> Order;
  for (unsigned N : Sizes)
    for (unsigned Trial = 0; Trial < 3; ++Trial) {
      RelT Dag = shuffledDag<RelT>(N, Rng, Order);
      typename RelT::SetT Subset = randomSubset<RelT>(N, Rng);
      if (N && Subset == RelT::fullSet(N))
        bits::clear(Subset, Order[0]);
      for (const RelT &Must : {Dag, Dag.transitiveClosure()}) {
        SCOPED_TRACE("n=" + std::to_string(N) + " trial " +
                     std::to_string(Trial));
        Check(Must, RelT::fullSet(N), Order);
        Check(Must, Subset, Order);
      }
    }
}

template <typename RelT>
void expectLexSmallestMatchesScan(unsigned Seed,
                                  std::initializer_list<unsigned> Sizes) {
  forEachOrderCase<RelT>(
      Sizes, Seed,
      [](const RelT &Must, const typename RelT::SetT &Universe,
         const std::vector<unsigned> &) {
        std::vector<unsigned> Kahn = lexSmallestExtension(Must, Universe);
        EXPECT_EQ(Kahn, scanLexSmallestExtension(Must, Universe));
        EXPECT_EQ(Kahn.size(), bits::count(Universe));
      });
}

template <typename RelT>
void expectClosedOrderMatchesColumns(unsigned Seed,
                                     std::initializer_list<unsigned> Sizes) {
  forEachOrderCase<RelT>(
      Sizes, Seed,
      [](const RelT &Must, const typename RelT::SetT &Universe,
         const std::vector<unsigned> &Order) {
        ClosedOrder<RelT> CO;
        ASSERT_TRUE(CO.init(Must, Universe));
        RelT Closed = Must.restricted(Universe, Universe).transitiveClosure();
        for (unsigned A = 0; A < Must.size(); ++A) {
          EXPECT_TRUE(CO.Succ[A] == Closed.row(A)) << "Succ[" << A << "]";
          EXPECT_TRUE(CO.Pred[A] == Closed.column(A)) << "Pred[" << A << "]";
        }
        EXPECT_TRUE(CO.toRelation() == Closed);
        if (Must.size() < 2)
          return;
        // A back edge closes a cycle unless an endpoint lies outside the
        // universe.
        RelT Back = Must;
        unsigned Last = Order.back();
        Back.set(Last, Order[0]);
        Back.set(Order[0], Last);
        ClosedOrder<RelT> Cyclic;
        EXPECT_EQ(Cyclic.init(Back, Universe),
                  !(bits::test(Universe, Last) &&
                    bits::test(Universe, Order[0])));
      });
}

} // namespace

TEST(OrderKernelProperty, LexSmallestExtensionMatchesScanInline) {
  expectLexSmallestMatchesScan<Relation>(41, {0, 1, 63, 64});
}

TEST(OrderKernelProperty, LexSmallestExtensionMatchesScanDyn) {
  expectLexSmallestMatchesScan<DynRelation>(43,
                                            {0, 1, 63, 64, 65, 500, 1024});
}

TEST(OrderKernelProperty, ClosedOrderPredIsColumnInline) {
  expectClosedOrderMatchesColumns<Relation>(47, {0, 1, 63, 64});
}

TEST(OrderKernelProperty, ClosedOrderPredIsColumnDyn) {
  expectClosedOrderMatchesColumns<DynRelation>(53,
                                               {0, 1, 63, 64, 65, 500, 1024});
}

//===----------------------------------------------------------------------===//
// totalOrderOver's row-at-a-time builder on both tiers against the
// pairwise definition
//===----------------------------------------------------------------------===//

namespace {

/// {<Order[i], Order[j]> | i < j}, one pair at a time.
template <typename RelT>
RelT pairwiseTotalOrder(const std::vector<unsigned> &Order, unsigned Size) {
  RelT R(Size);
  for (size_t I = 0; I < Order.size(); ++I)
    for (size_t J = I + 1; J < Order.size(); ++J)
      R.set(Order[I], Order[J]);
  return R;
}

/// Compares the two builders on shuffles of every element, of a random
/// subset, and of a random sequence with repeats, for each size.
template <typename RelT>
void expectTotalOrderMatchesPairwise(unsigned Seed,
                                     std::initializer_list<unsigned> Sizes) {
  std::mt19937 Rng(Seed);
  for (unsigned N : Sizes)
    for (unsigned Trial = 0; Trial < 3; ++Trial) {
      std::vector<unsigned> All(N);
      std::iota(All.begin(), All.end(), 0u);
      std::shuffle(All.begin(), All.end(), Rng);
      std::vector<unsigned> Subset;
      for (unsigned E : All)
        if (Rng() % 2)
          Subset.push_back(E);
      std::vector<unsigned> Repeats;
      Repeats.reserve(N / 2 + 1);
      for (unsigned I = 0; N && I < N / 2 + 1; ++I)
        Repeats.push_back(static_cast<unsigned>(Rng() % N));
      for (const std::vector<unsigned> *Seq : {&All, &Subset, &Repeats}) {
        SCOPED_TRACE("n=" + std::to_string(N) + " trial " +
                     std::to_string(Trial) + " length " +
                     std::to_string(Seq->size()));
        RelT Fast = totalOrderOver<RelT>(*Seq, N);
        EXPECT_TRUE(Fast == pairwiseTotalOrder<RelT>(*Seq, N));
        if (Seq == &All && N)
          EXPECT_TRUE(Fast.isStrictTotalOrderOn(RelT::fullSet(N)));
      }
    }
}

} // namespace

TEST(TotalOrderProperty, RowBuilderMatchesPairwiseInline) {
  expectTotalOrderMatchesPairwise<Relation>(59, {0, 1, 2, 17, 63, 64});
}

TEST(TotalOrderProperty, RowBuilderMatchesPairwiseDyn) {
  expectTotalOrderMatchesPairwise<DynRelation>(61,
                                               {0, 1, 63, 64, 65, 500, 1024});
}
