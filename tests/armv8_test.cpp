//===- tests/armv8_test.cpp - Mixed-size ARMv8 axiomatic model ------------===//

#include "engine/ExecutionEngine.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

/// Compiled Fig. 6b: the ARMv8 image of the Fig. 6 program under the
/// release/acquire scheme.
ArmProgram fig6bProgram() {
  ArmProgram P(8);
  P.Name = "fig6b";
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1, /*Release=*/true);
  T0.load(4, 4, /*Acquire=*/true);
  ArmThreadBuilder T1 = P.thread();
  T1.store(4, 4, 1, /*Release=*/true);
  T1.store(4, 4, 2, /*Release=*/true);
  T1.store(0, 4, 2);
  T1.load(0, 4, /*Acquire=*/true);
  return P;
}

} // namespace

TEST(ArmModel, PlainMessagePassingIsRelaxed) {
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armMP(false, false), Armv8Model());
  // Flag seen set but message stale: allowed with plain accesses.
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 0}})));
  EXPECT_EQ(R.Allowed.size(), 4u);
}

TEST(ArmModel, ReleaseAcquireMessagePassingForbidden) {
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armMP(true, true), Armv8Model());
  EXPECT_FALSE(R.allows(outcome({{1, 0, 1}, {1, 1, 0}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 1}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0}, {1, 1, 0}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0}, {1, 1, 1}})));
}

TEST(ArmModel, ReleaseAloneDoesNotForbidMP) {
  // Release store without acquire load: the reader may still reorder.
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armMP(true, false), Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 0}})));
}

TEST(ArmModel, StoreBufferingAllowedPlain) {
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armSB(false), Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{0, 0, 0}, {1, 0, 0}})));
}

TEST(ArmModel, StoreBufferingForbiddenWithDmb) {
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armSB(true), Armv8Model());
  EXPECT_FALSE(R.allows(outcome({{0, 0, 0}, {1, 0, 0}})));
  EXPECT_EQ(R.Allowed.size(), 3u);
}

TEST(ArmModel, LoadBufferingAllowedPlain) {
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armLB(false), Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{0, 0, 1}, {1, 0, 1}})));
}

TEST(ArmModel, LoadBufferingForbiddenWithDataDeps) {
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(armLB(true), Armv8Model());
  EXPECT_FALSE(R.allows(outcome({{0, 0, 1}, {1, 0, 1}})));
}

TEST(ArmModel, CoherenceCoRR) {
  // Two reads of one location in one thread must agree with coherence.
  ArmProgram P(4);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1);
  ArmThreadBuilder T1 = P.thread();
  T1.load(0, 4);
  T1.load(0, 4);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  EXPECT_FALSE(R.allows(outcome({{1, 0, 1}, {1, 1, 0}})))
      << "new-then-old violates per-byte internal coherence";
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0}, {1, 1, 1}})));
}

TEST(ArmModel, CoherenceCoWW) {
  // Same-thread writes to one location propagate in program order: the
  // other thread cannot read them in the reversed coherence order.
  ArmProgram P(4);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1);
  T0.store(0, 4, 2);
  ArmThreadBuilder T1 = P.thread();
  T1.load(0, 4);
  T1.load(0, 4);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 2}})));
  EXPECT_FALSE(R.allows(outcome({{1, 0, 2}, {1, 1, 1}})));
}

TEST(ArmModel, Fig6bOutcomeAllowed) {
  // §3.1: the compiled counter-example is architecturally allowed.
  ArmEnumerationResult R =
      ExecutionEngine().enumerate(fig6bProgram(), Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{0, 0, 1}, {1, 0, 1}})));
}

TEST(ArmModel, Fig6aTwinConsistencyWitness) {
  // The hand-built Fig. 6b execution (the twin of Fig. 6a) passes the
  // axioms with the coherence order c -> d on the flag.
  std::vector<ArmEvent> Evs;
  Evs.push_back(makeArmInit(0, 8));
  Evs.push_back(makeArmWrite(1, 0, 0, 4, 1, /*Release=*/true));
  Evs.push_back(makeArmRead(2, 0, 4, 4, /*Acquire=*/true));
  Evs.push_back(makeArmWrite(3, 1, 4, 4, 1, /*Release=*/true));
  Evs.push_back(makeArmWrite(4, 1, 4, 4, 2, /*Release=*/true));
  Evs.push_back(makeArmWrite(5, 1, 0, 4, 2));
  Evs.push_back(makeArmRead(6, 1, 0, 4, /*Acquire=*/true));
  ArmExecution X(std::move(Evs));
  X.Po.set(1, 2);
  for (unsigned A : {3u, 4u, 5u})
    for (unsigned B : {4u, 5u, 6u})
      if (A < B)
        X.Po.set(A, B);
  for (unsigned K = 4; K < 8; ++K) {
    X.Rbf.push_back({K, 3, 2});
    X.Events[2].Bytes[K - 4] = X.Events[3].byteAt(K);
  }
  for (unsigned K = 0; K < 4; ++K) {
    X.Rbf.push_back({K, 1, 6});
    X.Events[6].Bytes[K] = X.Events[1].byteAt(K);
  }
  X.Co = X.computeGranules();
  for (CoGranule &G : X.Co) {
    if (G.Begin == 0) {
      // Message bytes: e coherence-before a (the co edge Fig. 6b draws) —
      // otherwise f, po-after e, could not read a's older value.
      G.Order.push_back(5);
      G.Order.push_back(1);
    } else { // flag bytes: c then d
      G.Order.push_back(3);
      G.Order.push_back(4);
    }
  }
  std::string Err;
  ASSERT_TRUE(X.checkWellFormed(&Err)) << Err;
  std::string Why;
  EXPECT_TRUE(isArmConsistent(X, &Why)) << Why;
}

TEST(ArmModel, ExclusivePairAtomicity) {
  // Two competing exchanges: both reading the initial value is forbidden
  // by the atomic axiom.
  ArmProgram P(4);
  ArmThreadBuilder T0 = P.thread();
  T0.load(0, 4, /*Acquire=*/true, /*Exclusive=*/true, 0, -1, /*RmwTag=*/0);
  T0.store(0, 4, 1, /*Release=*/true, /*Exclusive=*/true, 0, -1, 0);
  ArmThreadBuilder T1 = P.thread();
  T1.load(0, 4, true, true, 0, -1, /*RmwTag=*/1);
  T1.store(0, 4, 2, true, true, 0, -1, 1);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  EXPECT_FALSE(R.allows(outcome({{0, 0, 0}, {1, 0, 0}})));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 0}, {1, 0, 1}})));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 2}, {1, 0, 0}})));
}

TEST(ArmModel, MixedSizePartialOverlapTearing) {
  // A 2-byte read overlapping two 1-byte writes can mix them freely.
  ArmProgram P(2);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 1, 0x1);
  ArmThreadBuilder T1 = P.thread();
  T1.store(1, 1, 0x2);
  ArmThreadBuilder T2 = P.thread();
  T2.load(0, 2);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x0201}})));
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x0001}})));
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x0200}})));
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x0000}})));
}

TEST(ArmModel, MixedSizeWordObserversShareGranuleOrder) {
  // Two same-footprint word writes are coherence-ordered consistently:
  // two word readers in one thread cannot see torn combinations that would
  // require per-byte disagreement within one granule.
  ArmProgram P(2);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 2, 0x0101);
  ArmThreadBuilder T1 = P.thread();
  T1.store(0, 2, 0x0202);
  ArmThreadBuilder T2 = P.thread();
  T2.load(0, 2);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  // Same-granule writes cannot interleave bytes for a single read.
  EXPECT_FALSE(R.allows(outcome({{2, 0, 0x0201}})));
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x0101}})));
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x0202}})));
}

TEST(ArmModel, MixedSizeOverlapSplitsGranules) {
  // A word write overlapping two byte writes splits into two granules; the
  // byte halves may be ordered differently against the word write.
  ArmProgram P(2);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 2, 0x1111);
  ArmThreadBuilder T1 = P.thread();
  T1.store(0, 1, 0x22);
  T1.store(1, 1, 0x33); // wait: same thread writes both bytes
  ArmThreadBuilder T2 = P.thread();
  T2.load(0, 2);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  // Byte 0 from the word write, byte 1 from the byte write: torn view.
  EXPECT_TRUE(R.allows(outcome({{2, 0, 0x3311}})));
}

TEST(ArmModel, InternalAxiomDetectsPerByteCycle) {
  // po-loc R then W on the same byte with rbf from the po-later write is a
  // per-byte cycle.
  std::vector<ArmEvent> Evs;
  Evs.push_back(makeArmInit(0, 4));
  Evs.push_back(makeArmRead(1, 0, 0, 4));
  Evs.push_back(makeArmWrite(2, 0, 0, 4, 7));
  ArmExecution X(std::move(Evs));
  X.Po.set(1, 2);
  for (unsigned K = 0; K < 4; ++K) {
    X.Rbf.push_back({K, 2, 1});
    X.Events[1].Bytes[K] = X.Events[2].byteAt(K);
  }
  X.Co = X.computeGranules();
  for (CoGranule &G : X.Co)
    G.Order.push_back(2);
  EXPECT_FALSE(checkArmInternal(X));
  EXPECT_FALSE(isArmConsistent(X));
}

TEST(ArmModel, SkeletonExposesDependencies) {
  ArmProgram P(8);
  ArmThreadBuilder T0 = P.thread();
  Reg A = T0.load(0, 4);
  T0.store(4, 4, 1);
  T0.dataDep(A);
  unsigned Count = 0;
  ExecutionEngine().forEachSkeleton(P, [&](const ArmSkeleton &S) {
    ++Count;
    EXPECT_TRUE(S.Exec.DataDep.get(1, 2));
    EXPECT_TRUE(S.Exec.AddrDep.empty());
    return true;
  });
  EXPECT_EQ(Count, 1u);
}

TEST(ArmModel, CtrlDepOrdersStoresNotLoads) {
  // MP with ctrl dependency on the reader side: ctrl does not order
  // R -> R, so the stale read stays allowed...
  ArmProgram P(8);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1);
  T0.fence(ArmInstr::Kind::DmbFull);
  T0.store(4, 4, 1);
  ArmThreadBuilder T1 = P.thread();
  Reg F = T1.load(4, 4);
  T1.load(0, 4);
  T1.ctrlDep(F);
  ArmEnumerationResult R = ExecutionEngine().enumerate(P, Armv8Model());
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 0}})));
  // ...but ctrl to a *store* is ordered (no LB with ctrl deps on stores).
  ArmProgram LBProgram = [&] {
    ArmProgram Q(8);
    ArmThreadBuilder A0 = Q.thread();
    Reg X = A0.load(0, 4);
    A0.store(4, 4, 1);
    A0.ctrlDep(X);
    ArmThreadBuilder A1 = Q.thread();
    Reg Y = A1.load(4, 4);
    A1.store(0, 4, 1);
    A1.ctrlDep(Y);
    return Q;
  }();
  ArmEnumerationResult LB =
      ExecutionEngine().enumerate(LBProgram, Armv8Model());
  EXPECT_FALSE(LB.allows(outcome({{0, 0, 1}, {1, 0, 1}})));
}

TEST(ArmModel, WellFormednessChecks) {
  std::vector<ArmEvent> Evs;
  Evs.push_back(makeArmInit(0, 4));
  Evs.push_back(makeArmWrite(1, 0, 0, 4, 1));
  Evs.push_back(makeArmWrite(2, 0, 0, 4, 2));
  ArmExecution X(std::move(Evs));
  X.Po.set(1, 2);
  X.Co = X.computeGranules();
  std::string Err;
  EXPECT_FALSE(X.checkWellFormed(&Err)) << "granule order incomplete";
  for (CoGranule &G : X.Co) {
    G.Order.push_back(1);
    G.Order.push_back(2);
  }
  EXPECT_TRUE(X.checkWellFormed(&Err)) << Err;
}

namespace {

/// Where the second of two same-footprint u16 writers sits relative to the
/// 2-byte read.
enum class SecondWriter { OtherThread, PoBeforeRead, PoAfterRead };

/// Init (0), W1 (1) on thread 0, and a 2-byte read on thread 1 with W2 on
/// thread 2 or on the read's thread, po-before or po-after it. Returns the
/// execution with po set and no rbf; \p ReadId receives the read's id.
ArmExecution tornReadSkeleton(SecondWriter Where, EventId &ReadId) {
  std::vector<ArmEvent> Evs;
  Evs.push_back(makeArmInit(0, 2));
  Evs.push_back(makeArmWrite(1, 0, 0, 2, 0x0101));
  switch (Where) {
  case SecondWriter::OtherThread:
    Evs.push_back(makeArmWrite(2, 2, 0, 2, 0x0202));
    Evs.push_back(makeArmRead(3, 1, 0, 2));
    ReadId = 3;
    break;
  case SecondWriter::PoBeforeRead:
    Evs.push_back(makeArmWrite(2, 1, 0, 2, 0x0202));
    Evs.push_back(makeArmRead(3, 1, 0, 2));
    ReadId = 3;
    break;
  case SecondWriter::PoAfterRead:
    Evs.push_back(makeArmRead(2, 1, 0, 2));
    Evs.push_back(makeArmWrite(3, 1, 0, 2, 0x0202));
    ReadId = 2;
    break;
  }
  ArmExecution X(std::move(Evs));
  if (Where != SecondWriter::OtherThread)
    X.Po.set(2, 3);
  return X;
}

/// \returns true if some coherence completion of \p X, with the read
/// \p R taking byte 0 from \p W0 and byte 1 from \p W1, is consistent.
bool someCompletionConsistent(ArmExecution X, EventId R, EventId W0,
                              EventId W1) {
  for (unsigned Loc : {0u, 1u}) {
    EventId W = Loc == 0 ? W0 : W1;
    X.Rbf.push_back({Loc, W, R});
    X.Events[R].Bytes[Loc] = X.Events[W].byteAt(Loc);
  }
  X.Co = X.computeGranules();
  bool Consistent = false;
  forEachCoherenceCompletion(X, [&] {
    Consistent = Consistent || isArmConsistent(X);
    return !Consistent;
  });
  return Consistent;
}

} // namespace

TEST(ArmModel, ReadsNeverTearAcrossOneGranule) {
  // The invariant behind the engine's granule-atomic reads: bytes of one
  // granule share one writer set and one co order, so a read taking them
  // from two writers W co-before W' has fr R->W' on one byte and rbf
  // W'->R on the other. That is an rfe/fre cycle in ob when W' is
  // external, and a per-byte po-loc cycle when W' is on the read's thread
  // (po-before or po-after it). Every co completion is inconsistent.
  for (SecondWriter Where :
       {SecondWriter::OtherThread, SecondWriter::PoBeforeRead,
        SecondWriter::PoAfterRead}) {
    EventId R = 0;
    ArmExecution X = tornReadSkeleton(Where, R);
    ASSERT_EQ(X.computeGranules().size(), 1u) << "one granule expected";
    std::vector<EventId> Writers;
    for (const ArmEvent &E : X.Events)
      if (E.isWrite())
        Writers.push_back(E.Id);
    ASSERT_EQ(Writers.size(), 3u);
    for (EventId W0 : Writers)
      for (EventId W1 : Writers)
        if (W0 != W1) {
          EXPECT_FALSE(someCompletionConsistent(X, R, W0, W1))
              << "case " << static_cast<int>(Where) << ": byte 0 from "
              << W0 << ", byte 1 from " << W1;
        }
    // Not vacuous: the untorn read of the other thread's W1 is
    // consistent in every case.
    EXPECT_TRUE(someCompletionConsistent(X, R, 1, 1))
        << "case " << static_cast<int>(Where);
  }
}
