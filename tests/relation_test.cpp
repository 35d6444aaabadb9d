//===- tests/relation_test.cpp - Relation algebra unit tests --------------===//

#include "solver/ClosedOrder.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/LinearExtensions.h"
#include "support/Relation.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

using namespace jsmm;
using testutil::wordSet;

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
  EXPECT_TRUE(R.row(2) == wordSet(4, 0b1000));
  EXPECT_TRUE(R.column(2) == wordSet(4, 0b0011));
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
  Relation R = totalOrderOver({2, 0, 1}, 3);
  EXPECT_TRUE(R.isStrictTotalOrderOn(wordSet(3, 0b111)));
  EXPECT_TRUE(R.get(2, 0));
  EXPECT_TRUE(R.get(2, 1));
  EXPECT_TRUE(R.get(0, 1));
  // Partial order is not total.
  Relation P(3);
  P.set(0, 1);
  EXPECT_FALSE(P.isStrictTotalOrderOn(wordSet(3, 0b111)));
  // Total on a sub-universe.
  Relation Q(3);
  Q.set(0, 2);
  EXPECT_TRUE(Q.isStrictTotalOrderOn(wordSet(3, 0b101)));
}

TEST(Relation, StrictTotalOrderRejectsOutsidePairs) {
  Relation R(3);
  R.set(0, 1);
  R.set(2, 0); // 2 is outside the universe below
  EXPECT_FALSE(R.isStrictTotalOrderOn(wordSet(3, 0b011)));
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
  Relation P = Relation::product(wordSet(3, 0b011), wordSet(3, 0b100), 3);
  EXPECT_TRUE(P.get(0, 2));
  EXPECT_TRUE(P.get(1, 2));
  EXPECT_EQ(P.count(), 2u);
  Relation R(3);
  R.set(0, 1);
  R.set(0, 2);
  R.set(1, 2);
  Relation Res = R.restricted(wordSet(3, 0b001), wordSet(3, 0b110));
  EXPECT_EQ(Res.count(), 2u);
  EXPECT_TRUE(Res.get(0, 1));
  EXPECT_TRUE(Res.get(0, 2));
}

TEST(Relation, IdentityOnUniverse) {
  Relation I = Relation::identity(wordSet(3, 0b101), 3);
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
  EXPECT_THROW(Relation R(Relation::MaxSize + 1), CapacityError);
  // CapacityError remains a std::length_error for legacy catch sites.
  EXPECT_THROW(Relation R(Relation::MaxSize + 1), std::length_error);
  EXPECT_THROW(Relation R(5000), std::length_error);
  Relation AtCap(Relation::MaxSize);
  EXPECT_EQ(AtCap.size(), Relation::MaxSize);
  // totalOrderOver goes through the checked constructor too.
  EXPECT_THROW(totalOrderOver({0, 1}, Relation::MaxSize + 1),
               std::length_error);
}

TEST(Relation, CopyAndMoveKeepTheRowsInUse) {
  // A relation that held heap rows and then took a one-word universe keeps
  // its heap storage but uses its inline rows; copies and moves read those.
  Relation Big(100);
  Big.set(99, 3);
  Relation Small(5);
  Small.set(1, 4);
  Relation R = Big;
  R = Small;
  EXPECT_TRUE(R == Small);
  Relation Moved = std::move(R);
  EXPECT_TRUE(Moved == Small);
  Relation Assigned(70);
  Assigned = std::move(Moved);
  EXPECT_TRUE(Assigned == Small);
  Relation Large = Big;
  Relation Taken = std::move(Large);
  EXPECT_TRUE(Taken == Big);
  EXPECT_EQ(Taken.pairs(), Big.pairs());
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
  EXPECT_EQ(countLinearExtensions(Chain, wordSet(3, 0b111)), 1u);
  // An antichain of n elements has n! extensions.
  Relation Empty(3);
  EXPECT_EQ(countLinearExtensions(Empty, wordSet(3, 0b111)), 6u);
}

TEST(LinearExtensions, VShapePoset) {
  // 0 < 2 and 1 < 2: two linear extensions.
  Relation R(3);
  R.set(0, 2);
  R.set(1, 2);
  EXPECT_EQ(countLinearExtensions(R, wordSet(3, 0b111)), 2u);
}

TEST(LinearExtensions, RespectsUniverseSubset) {
  Relation R(4);
  R.set(0, 1);
  // Only {0,1,3}: 3 extensions of a 2-chain plus a free element.
  EXPECT_EQ(countLinearExtensions(R, wordSet(4, 0b1011)), 3u);
}

TEST(LinearExtensions, CyclicOrderHasNoExtensions) {
  Relation R(2);
  R.set(0, 1);
  R.set(1, 0);
  EXPECT_EQ(countLinearExtensions(R, wordSet(2, 0b11)), 0u);
}

TEST(LinearExtensions, EarlyStop) {
  Relation Empty(4);
  uint64_t Seen = 0;
  bool Completed = forEachLinearExtension(
      Empty, wordSet(4, 0b1111), [&](const std::vector<unsigned> &) {
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
  forEachLinearExtension(R, wordSet(4, 0b1111), [&](const std::vector<unsigned> &Seq) {
    std::vector<unsigned> Pos(4);
    for (unsigned I = 0; I < 4; ++I)
      Pos[Seq[I]] = I;
    EXPECT_LT(Pos[1], Pos[0]);
    EXPECT_LT(Pos[2], Pos[3]);
    return true;
  });
  EXPECT_EQ(countLinearExtensions(R, wordSet(4, 0b1111)), 6u);
}

TEST(Relation, TotalOrderFromSequenceSubset) {
  Relation R = totalOrderOver({3, 1}, 4);
  EXPECT_TRUE(R.get(3, 1));
  EXPECT_EQ(R.count(), 1u);
}

//===----------------------------------------------------------------------===//
// Property tests of every relation and set operation against a naive
// reference: relations as sets of pairs, sets as sets of elements. Sizes
// sit on and around the 64-bit word boundary (rows of one word up to 64
// elements, of several words beyond) up to the serving cap.
//===----------------------------------------------------------------------===//

namespace {

const unsigned PropertySizes[] = {0, 1, 2, 63, 64, 65, 128, 500, 1024};

using PairSet = std::set<std::pair<unsigned, unsigned>>;
using ElemSet = std::set<unsigned>;

/// The pairs of \p R, read one get() at a time.
PairSet pairsOf(const Relation &R) {
  PairSet P;
  for (unsigned A = 0; A < R.size(); ++A)
    for (unsigned B = 0; B < R.size(); ++B)
      if (R.get(A, B))
        P.emplace(A, B);
  return P;
}

/// The elements of \p S, read one bits::test at a time.
ElemSet elemsOf(const BitSet &S) {
  ElemSet E;
  for (unsigned I = 0; I < S.universeBits(); ++I)
    if (bits::test(S, I))
      E.insert(I);
  return E;
}

Relation relationOf(unsigned N, const PairSet &P) {
  Relation R(N);
  for (const auto &[A, B] : P)
    R.set(A, B);
  return R;
}

BitSet setOf(unsigned N, const ElemSet &E) {
  BitSet S(N);
  for (unsigned I : E)
    bits::set(S, I);
  return S;
}

/// About three random successors per element, self-loops included.
PairSet randomPairs(unsigned N, std::mt19937 &Rng) {
  PairSet P;
  for (unsigned I = 0; N && I < 3 * N; ++I)
    P.emplace(static_cast<unsigned>(Rng() % N),
              static_cast<unsigned>(Rng() % N));
  return P;
}

/// Each element of a universe of \p N with probability one half.
ElemSet randomElems(unsigned N, std::mt19937 &Rng) {
  ElemSet E;
  for (unsigned I = 0; I < N; ++I)
    if (Rng() % 2)
      E.insert(I);
  return E;
}

std::vector<ElemSet> successors(unsigned N, const PairSet &P) {
  std::vector<ElemSet> Succ(N);
  for (const auto &[A, B] : P)
    Succ[A].insert(B);
  return Succ;
}

/// Runs \p Check(N, Rng) for three trials at every property size.
template <typename FnT> void forEachSize(unsigned Seed, FnT Check) {
  std::mt19937 Rng(Seed);
  for (unsigned N : PropertySizes)
    for (unsigned Trial = 0; Trial < 3; ++Trial) {
      SCOPED_TRACE("n=" + std::to_string(N) + " trial " +
                   std::to_string(Trial));
      Check(N, Rng);
    }
}

} // namespace

TEST(RelationProperty, GetSetClearCountMatchReference) {
  forEachSize(3, [](unsigned N, std::mt19937 &Rng) {
    PairSet Ref = randomPairs(N, Rng);
    Relation R = relationOf(N, Ref);
    EXPECT_EQ(pairsOf(R), Ref);
    EXPECT_EQ(R.count(), Ref.size());
    EXPECT_EQ(R.empty(), Ref.empty());
    PairSet Visited;
    R.forEachPair([&](unsigned A, unsigned B) { Visited.emplace(A, B); });
    EXPECT_EQ(Visited, Ref);
    std::vector<std::pair<unsigned, unsigned>> Ordered(Ref.begin(), Ref.end());
    EXPECT_EQ(R.pairs(), Ordered); // row-major order
    for (auto It = Ref.begin(); It != Ref.end();) {
      R.clear(It->first, It->second);
      It = Rng() % 2 ? Ref.erase(It) : std::next(It);
      if (It != Ref.end())
        ++It;
    }
    Ref = pairsOf(R);
    EXPECT_EQ(R.count(), Ref.size());
  });
}

TEST(RelationProperty, RowColumnAssignRowMatchReference) {
  forEachSize(5, [](unsigned N, std::mt19937 &Rng) {
    PairSet Ref = randomPairs(N, Rng);
    Relation R = relationOf(N, Ref);
    for (unsigned A = 0; A < N; ++A) {
      ElemSet Row, Col;
      for (const auto &[X, Y] : Ref) {
        if (X == A)
          Row.insert(Y);
        if (Y == A)
          Col.insert(X);
      }
      EXPECT_EQ(elemsOf(R.row(A)), Row) << "row " << A;
      EXPECT_EQ(elemsOf(R.column(A)), Col) << "column " << A;
      EXPECT_EQ(R.row(A).universeBits(), N);
      EXPECT_EQ(R.column(A).universeBits(), N);
    }
    if (N == 0)
      return;
    unsigned A = static_cast<unsigned>(Rng() % N);
    ElemSet NewRow = randomElems(N, Rng);
    R.assignRow(A, setOf(N, NewRow));
    std::erase_if(Ref, [&](const auto &P) { return P.first == A; });
    for (unsigned B : NewRow)
      Ref.emplace(A, B);
    EXPECT_EQ(pairsOf(R), Ref);
    ElemSet More = randomElems(N, Rng);
    R.uniteRow(A, setOf(N, More));
    for (unsigned B : More)
      Ref.emplace(A, B);
    EXPECT_EQ(pairsOf(R), Ref);
  });
}

TEST(RelationProperty, AlgebraMatchesReference) {
  forEachSize(7, [](unsigned N, std::mt19937 &Rng) {
    PairSet P1 = randomPairs(N, Rng), P2 = randomPairs(N, Rng);
    Relation R1 = relationOf(N, P1), R2 = relationOf(N, P2);
    PairSet Union = P1, Inter, Minus, Inverse, Compose;
    Union.insert(P2.begin(), P2.end());
    for (const auto &P : P1) {
      (P2.count(P) ? Inter : Minus).insert(P);
      Inverse.emplace(P.second, P.first);
    }
    std::vector<ElemSet> Succ2 = successors(N, P2);
    for (const auto &[A, B] : P1)
      for (unsigned C : Succ2[B])
        Compose.emplace(A, C);
    EXPECT_EQ(pairsOf(R1.unioned(R2)), Union);
    EXPECT_EQ(pairsOf(R1.intersected(R2)), Inter);
    EXPECT_EQ(pairsOf(R1.subtracted(R2)), Minus);
    EXPECT_EQ(pairsOf(R1.inverse()), Inverse);
    EXPECT_EQ(pairsOf(R1.compose(R2)), Compose);
    // contains and == against the reference's own subset and equality.
    EXPECT_TRUE(R1.contains(R1.intersected(R2)));
    EXPECT_EQ(R1.contains(R2),
              std::includes(P1.begin(), P1.end(), P2.begin(), P2.end()));
    EXPECT_EQ(R1 == R2, P1 == P2);
    EXPECT_TRUE(R1 == relationOf(N, P1));
    if (!P1.empty()) {
      Relation Fewer = R1;
      Fewer.clear(P1.begin()->first, P1.begin()->second);
      EXPECT_FALSE(Fewer == R1);
      EXPECT_TRUE(R1.contains(Fewer));
      EXPECT_FALSE(Fewer.contains(R1));
    }
    EXPECT_FALSE(Relation(N) == Relation(N ? N - 1 : 1));
  });
}

TEST(RelationProperty, RestrictedProductIdentityMatchReference) {
  forEachSize(11, [](unsigned N, std::mt19937 &Rng) {
    PairSet Ref = randomPairs(N, Rng);
    ElemSet A = randomElems(N, Rng), B = randomElems(N, Rng);
    PairSet Restricted, Product, Identity;
    for (const auto &P : Ref)
      if (A.count(P.first) && B.count(P.second))
        Restricted.insert(P);
    for (unsigned X : A) {
      Identity.emplace(X, X);
      for (unsigned Y : B)
        Product.emplace(X, Y);
    }
    Relation R = relationOf(N, Ref);
    EXPECT_EQ(pairsOf(R.restricted(setOf(N, A), setOf(N, B))), Restricted);
    EXPECT_EQ(pairsOf(Relation::product(setOf(N, A), setOf(N, B), N)), Product);
    EXPECT_EQ(pairsOf(Relation::identity(setOf(N, A), N)), Identity);
  });
}

namespace {

/// The definition: irreflexive, transitive and total on \p U, and empty
/// outside it.
bool isStrictTotalOrderRef(const PairSet &P, const ElemSet &U) {
  for (const auto &[A, B] : P)
    if (A == B || !U.count(A) || !U.count(B))
      return false;
  for (const auto &[A, B] : P)
    for (unsigned C : U)
      if (P.count({B, C}) && !P.count({A, C}))
        return false;
  for (unsigned A : U)
    for (unsigned B : U)
      if (A < B && !P.count({A, B}) && !P.count({B, A}))
        return false;
  return true;
}

/// A shuffle of up to 40 elements of a universe of \p N.
std::vector<unsigned> randomSequence(unsigned N, std::mt19937 &Rng) {
  std::vector<unsigned> All(N);
  std::iota(All.begin(), All.end(), 0u);
  std::shuffle(All.begin(), All.end(), Rng);
  All.resize(std::min<size_t>(All.size(), 40));
  return All;
}

} // namespace

TEST(RelationProperty, StrictTotalOrderMatchesReference) {
  forEachSize(13, [](unsigned N, std::mt19937 &Rng) {
    std::vector<unsigned> Seq = randomSequence(N, Rng);
    ElemSet U(Seq.begin(), Seq.end());
    Relation Tot = totalOrderOver(Seq, N);
    // The order itself, then one mutation of each kind the definition
    // rejects: a missing pair, a reversed pair, an element outside, a pair
    // outside, a self-loop.
    std::vector<Relation> Cases = {Tot};
    if (Seq.size() >= 2) {
      Relation Missing = Tot;
      Missing.clear(Seq[0], Seq[1]);
      Relation Reversed = Tot;
      Reversed.set(Seq[1], Seq[0]);
      Relation SelfLoop = Tot;
      SelfLoop.set(Seq[0], Seq[0]);
      Cases.insert(Cases.end(), {Missing, Reversed, SelfLoop});
    }
    if (U.size() < N) {
      unsigned Outside = 0;
      while (U.count(Outside))
        ++Outside;
      Relation OutsidePair = Tot;
      OutsidePair.set(Outside, Seq.empty() ? Outside : Seq[0]);
      Cases.push_back(OutsidePair);
      ElemSet Wider = U;
      Wider.insert(Outside);
      EXPECT_EQ(Tot.isStrictTotalOrderOn(setOf(N, Wider)),
                isStrictTotalOrderRef(pairsOf(Tot), Wider));
    }
    for (const Relation &R : Cases)
      EXPECT_EQ(R.isStrictTotalOrderOn(setOf(N, U)),
                isStrictTotalOrderRef(pairsOf(R), U));
    EXPECT_TRUE(Tot.isStrictTotalOrderOn(setOf(N, U)));
  });
}

TEST(RelationProperty, TopologicalOrderMatchesReference) {
  forEachSize(19, [](unsigned N, std::mt19937 &Rng) {
    // A DAG along a shuffle: edges only from earlier to later positions.
    std::vector<unsigned> Pos(N);
    std::iota(Pos.begin(), Pos.end(), 0u);
    std::shuffle(Pos.begin(), Pos.end(), Rng);
    PairSet Dag;
    for (const auto &[A, B] : randomPairs(N, Rng))
      if (Pos[A] < Pos[B])
        Dag.emplace(A, B);
    // Kahn's algorithm over the pairs, smallest ready element first.
    std::vector<unsigned> InDegree(N, 0), Expected;
    for (const auto &P : Dag)
      ++InDegree[P.second];
    ElemSet Ready;
    for (unsigned A = 0; A < N; ++A)
      if (!InDegree[A])
        Ready.insert(A);
    std::vector<ElemSet> Succ = successors(N, Dag);
    while (!Ready.empty()) {
      unsigned A = *Ready.begin();
      Ready.erase(Ready.begin());
      Expected.push_back(A);
      for (unsigned B : Succ[A])
        if (--InDegree[B] == 0)
          Ready.insert(B);
    }
    Relation R = relationOf(N, Dag);
    std::optional<std::vector<unsigned>> Order = R.topologicalOrder();
    ASSERT_TRUE(Order.has_value());
    EXPECT_EQ(*Order, Expected);
    if (N >= 2) {
      unsigned First = Expected.front(), Last = Expected.back();
      R.set(Last, First);
      R.set(First, Last);
      EXPECT_FALSE(R.topologicalOrder().has_value());
    }
  });
}

TEST(BitSetProperty, OperatorsMatchReference) {
  forEachSize(37, [](unsigned N, std::mt19937 &Rng) {
    ElemSet A = randomElems(N, Rng), B = randomElems(N, Rng);
    BitSet SA = setOf(N, A), SB = setOf(N, B);
    ElemSet Union = A, Inter, Complement;
    Union.insert(B.begin(), B.end());
    for (unsigned I = 0; I < N; ++I) {
      if (A.count(I) && B.count(I))
        Inter.insert(I);
      if (!A.count(I))
        Complement.insert(I);
    }
    EXPECT_EQ(elemsOf(SA | SB), Union);
    EXPECT_EQ(elemsOf(SA & SB), Inter);
    // Complement stays inside the universe: the tail of the last word is
    // masked, so counts and equality see no bit past N.
    BitSet NotA = ~SA;
    EXPECT_EQ(elemsOf(NotA), Complement);
    EXPECT_EQ(bits::count(NotA), N - A.size());
    EXPECT_TRUE(~NotA == SA);
    EXPECT_TRUE(~Relation::emptySet(N) == Relation::fullSet(N));
    EXPECT_EQ(bits::count(Relation::fullSet(N)), N);
    EXPECT_FALSE(bits::any(~Relation::fullSet(N)));
    EXPECT_EQ(bits::any(SA), !A.empty());
    EXPECT_EQ(bits::count(SA), A.size());
    BitSet Acc = SA;
    Acc |= SB;
    EXPECT_TRUE(Acc == (SA | SB));
    Acc &= SA;
    EXPECT_TRUE(Acc == SA);
    EXPECT_EQ(SA == SB, A == B);
    EXPECT_FALSE(BitSet(N) == BitSet(N ? N - 1 : 1));
    std::vector<unsigned> Visited;
    bits::forEach(SA, [&](unsigned I) { Visited.push_back(I); });
    EXPECT_EQ(Visited, std::vector<unsigned>(A.begin(), A.end()));
    Visited.clear();
    bool Completed = bits::forEachWhile(SA, [&](unsigned I) {
      Visited.push_back(I);
      return Visited.size() < 3;
    });
    EXPECT_EQ(Completed, A.size() < 3);
    EXPECT_EQ(Visited.size(), std::min<size_t>(A.size(), 3));
    for (unsigned I : A) {
      bits::clear(SA, I);
      EXPECT_FALSE(bits::test(SA, I));
    }
    EXPECT_FALSE(bits::any(SA));
  });
}

//===----------------------------------------------------------------------===//
// The depth-first acyclicity check and post-order closure of rows of
// several words, and the Warshall closure of rows of one word, against a
// breadth-first search from every element over adjacency lists.
//===----------------------------------------------------------------------===//

namespace {

/// The transitive closure of \p R, computed without Relation's own
/// closure or search.
Relation referenceClosure(const Relation &R) {
  unsigned N = R.size();
  std::vector<std::vector<unsigned>> Succ(N);
  R.forEachPair([&](unsigned A, unsigned B) { Succ[A].push_back(B); });
  Relation Closure(N);
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
void expectMatchesReference(const Relation &R, bool Acyclic,
                            const std::string &Case) {
  SCOPED_TRACE(Case + ", n=" + std::to_string(R.size()));
  Relation Expected = referenceClosure(R);
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
Relation shuffledDag(unsigned N, std::mt19937 &Rng,
                     std::vector<unsigned> &Order) {
  Order.resize(N);
  std::iota(Order.begin(), Order.end(), 0u);
  std::shuffle(Order.begin(), Order.end(), Rng);
  Relation R(N);
  for (unsigned I = 0; I + 1 < N; ++I)
    for (unsigned E = 0; E < 3; ++E) {
      unsigned J = I + 1 + static_cast<unsigned>(Rng() % (N - I - 1));
      R.set(Order[I], Order[J]);
    }
  return R;
}

/// Program order of \p Threads threads over \p N events, events of one
/// thread contiguous: each thread is a transitive chain.
Relation poChains(unsigned N, unsigned Threads) {
  Relation R(N);
  unsigned Per = (N + Threads - 1) / Threads;
  for (unsigned A = 0; A < N; ++A)
    for (unsigned B = A + 1; B < N && B / Per == A / Per; ++B)
      R.set(A, B);
  return R;
}

} // namespace

TEST(RelationProperty, ShuffledDagsMatchReference) {
  std::mt19937 Rng(17);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes)
    for (unsigned Trial = 0; Trial < 3; ++Trial)
      expectMatchesReference(shuffledDag(N, Rng, Order), true,
                             "shuffled DAG");
}

TEST(RelationProperty, RandomRelationsMatchReference) {
  forEachSize(41, [](unsigned N, std::mt19937 &Rng) {
    Relation R = relationOf(N, randomPairs(N, Rng));
    expectMatchesReference(R, referenceClosure(R).isIrreflexive(),
                           "random relation");
  });
}

TEST(RelationProperty, BackEdgeInShuffledDagIsACycle) {
  std::mt19937 Rng(23);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes) {
    if (N < 2)
      continue;
    Relation R = shuffledDag(N, Rng, Order);
    // Close a cycle from some element back to one before it in order.
    unsigned J = 1 + static_cast<unsigned>(Rng() % (N - 1));
    unsigned I = static_cast<unsigned>(Rng() % J);
    R.set(Order[I], Order[J]);
    R.set(Order[J], Order[I]);
    expectMatchesReference(R, false, "shuffled DAG plus a back edge");
  }
}

TEST(RelationProperty, PoChainsMatchReference) {
  for (unsigned N : PropertySizes)
    for (unsigned Threads : {1u, 3u, 8u}) {
      if (Threads == 1 && N > 500)
        continue; // the reference is cubic on one long chain
      Relation Po = poChains(N, Threads);
      expectMatchesReference(Po, true, std::to_string(Threads) + " chains");
      // Program order is transitive already.
      EXPECT_TRUE(Po.transitiveClosure() == Po);
    }
}

TEST(RelationProperty, SelfLoopsAreCycles) {
  std::mt19937 Rng(29);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes) {
    if (N == 0)
      continue;
    Relation Alone(N);
    Alone.set(N - 1, N - 1);
    expectMatchesReference(Alone, false, "lone self-loop");
    Relation R = shuffledDag(N, Rng, Order);
    unsigned X = static_cast<unsigned>(Rng() % N);
    R.set(X, X);
    expectMatchesReference(R, false, "shuffled DAG plus a self-loop");
  }
}

TEST(RelationProperty, CyclesAcrossWordBoundaries) {
  for (unsigned N : PropertySizes) {
    if (N < 65)
      continue;
    Relation Po = poChains(N, 4);
    // Two elements in adjacent row words, and a longer cycle spanning
    // every word of the row.
    Relation Short = Po;
    Short.set(63, 64);
    Short.set(64, 63);
    expectMatchesReference(Short, false, "63 <-> 64");
    Relation Long = Po;
    for (unsigned A = 0; A + 64 < N; A += 64)
      Long.set(A, A + 64);
    Long.set(((N - 1) / 64) * 64, 0);
    expectMatchesReference(Long, false, "cycle through every word");
  }
}

TEST(RelationProperty, CycleReachableOnlyFromLateRoot) {
  std::mt19937 Rng(31);
  std::vector<unsigned> Order;
  for (unsigned N : PropertySizes) {
    if (N < 3)
      continue;
    // A DAG over all but the last two elements, which form a cycle that
    // no earlier element reaches: only the search from a late root
    // finds it.
    Relation R(N);
    Relation Front = shuffledDag(N - 2, Rng, Order);
    Front.forEachPair([&](unsigned A, unsigned B) { R.set(A, B); });
    R.set(N - 1, N - 2);
    R.set(N - 2, N - 1);
    R.set(N - 2, 0); // the cycle may reach earlier elements
    expectMatchesReference(R, false, "cycle behind a late root");
  }
}

//===----------------------------------------------------------------------===//
// The propagation solver's order kernels against column-reading references
//===----------------------------------------------------------------------===//

namespace {

/// lexSmallestExtension as a rescan: each step places the smallest
/// unplaced element of \p Universe with no unplaced strict predecessor,
/// read from the columns of \p Must.
std::vector<unsigned> scanLexSmallestExtension(const Relation &Must,
                                               const BitSet &Universe) {
  std::vector<unsigned> Order;
  std::vector<BitSet> Preds;
  for (unsigned B = 0; B < Must.size(); ++B)
    Preds.push_back(Must.column(B) & Universe);
  BitSet Placed = Relation::emptySet(Must.size());
  while (Placed != Universe) {
    unsigned Picked = Must.size();
    for (unsigned E = 0; E < Must.size(); ++E) {
      if (!bits::test(Universe, E) || bits::test(Placed, E))
        continue;
      BitSet Unplaced = Preds[E] & ~Placed;
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

/// Runs \p Check on sparse and transitively closed shuffled DAGs of
/// every size in \p Sizes, over the full universe and a strict subset.
template <typename FnT>
void forEachOrderCase(std::initializer_list<unsigned> Sizes, unsigned Seed,
                      FnT Check) {
  std::mt19937 Rng(Seed);
  std::vector<unsigned> Order;
  for (unsigned N : Sizes)
    for (unsigned Trial = 0; Trial < 3; ++Trial) {
      Relation Dag = shuffledDag(N, Rng, Order);
      BitSet Subset = setOf(N, randomElems(N, Rng));
      if (N && Subset == Relation::fullSet(N))
        bits::clear(Subset, Order[0]);
      for (const Relation &Must : {Dag, Dag.transitiveClosure()}) {
        SCOPED_TRACE("n=" + std::to_string(N) + " trial " +
                     std::to_string(Trial));
        Check(Must, Relation::fullSet(N), Order);
        Check(Must, Subset, Order);
      }
    }
}

} // namespace

TEST(OrderKernelProperty, LexSmallestExtensionMatchesScan) {
  forEachOrderCase({0, 1, 2, 63, 64, 65, 500, 1024}, 43,
                   [](const Relation &Must, const BitSet &Universe,
                      const std::vector<unsigned> &) {
                     std::vector<unsigned> Kahn =
                         lexSmallestExtension(Must, Universe);
                     EXPECT_EQ(Kahn, scanLexSmallestExtension(Must, Universe));
                     EXPECT_EQ(Kahn.size(), bits::count(Universe));
                   });
}

TEST(OrderKernelProperty, ClosedOrderPredIsColumn) {
  forEachOrderCase(
      {0, 1, 2, 63, 64, 65, 500, 1024}, 53,
      [](const Relation &Must, const BitSet &Universe,
         const std::vector<unsigned> &Order) {
        ClosedOrder CO;
        ASSERT_TRUE(CO.init(Must, Universe));
        Relation Closed =
            Must.restricted(Universe, Universe).transitiveClosure();
        EXPECT_TRUE(CO.toRelation() == Closed);
        EXPECT_TRUE(CO.Pred == Closed.inverse());
        for (unsigned A = 0; A < Must.size(); ++A)
          EXPECT_TRUE(CO.Pred.row(A) == Closed.column(A)) << "Pred " << A;
        if (Must.size() < 2)
          return;
        // A back edge closes a cycle unless an endpoint lies outside the
        // universe.
        Relation Back = Must;
        unsigned Last = Order.back();
        Back.set(Last, Order[0]);
        Back.set(Order[0], Last);
        ClosedOrder Cyclic;
        EXPECT_EQ(Cyclic.init(Back, Universe),
                  !(bits::test(Universe, Last) &&
                    bits::test(Universe, Order[0])));
      });
}

//===----------------------------------------------------------------------===//
// totalOrderOver's row-at-a-time builder against the pairwise definition
//===----------------------------------------------------------------------===//

namespace {

/// {<Order[i], Order[j]> | i < j}, one pair at a time.
Relation pairwiseTotalOrder(const std::vector<unsigned> &Order, unsigned Size) {
  Relation R(Size);
  for (size_t I = 0; I < Order.size(); ++I)
    for (size_t J = I + 1; J < Order.size(); ++J)
      R.set(Order[I], Order[J]);
  return R;
}

} // namespace

TEST(TotalOrderProperty, RowBuilderMatchesPairwise) {
  // Shuffles of every element, of a random subset, and of a random
  // sequence with repeats, for each size.
  std::mt19937 Rng(61);
  for (unsigned N : {0u, 1u, 2u, 17u, 63u, 64u, 65u, 500u, 1024u})
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
        Relation Fast = totalOrderOver(*Seq, N);
        EXPECT_TRUE(Fast == pairwiseTotalOrder(*Seq, N));
        if (Seq == &All && N) {
          EXPECT_TRUE(Fast.isStrictTotalOrderOn(Relation::fullSet(N)));
        }
      }
    }
}

TEST(TotalOrderProperty, LinearExtensionsOnHighIndices) {
  // totalOrderOver and the linear-extension machinery with indices past
  // the first word.
  std::vector<unsigned> Seq = {80, 3, 150};
  Relation R = totalOrderOver(Seq, 151);
  EXPECT_TRUE(R.get(80, 3));
  EXPECT_TRUE(R.get(80, 150));
  EXPECT_TRUE(R.get(3, 150));
  EXPECT_EQ(R.count(), 3u);
  ElemSet Universe(Seq.begin(), Seq.end());
  // It is already a total order on the universe.
  EXPECT_EQ(countLinearExtensions(R, setOf(151, Universe)), 1u);
}
