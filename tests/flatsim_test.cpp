//===- tests/flatsim_test.cpp - Operational simulator and its soundness ---===//

#include "flatsim/FlatSim.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

/// Soundness on one program: every operational execution must satisfy the
/// axiomatic model, and operational outcomes must be a subset of axiomatic
/// outcomes.
void expectSoundOn(const ArmProgram &P) {
  ArmEnumerationResult Ax = ExecutionEngine().enumerate(P, Armv8Model());
  std::set<std::string> AxOutcomes;
  for (const auto &[O, X] : Ax.Allowed) {
    (void)X;
    AxOutcomes.insert(O.toString());
  }
  forEachFlatExecution(P, [&](const ArmExecution &X, const Outcome &O) {
    std::string Why;
    EXPECT_TRUE(isArmConsistent(X, &Why))
        << P.Name << ": operational execution rejected (" << Why << ")\n"
        << X.toString();
    EXPECT_TRUE(AxOutcomes.count(O.toString()))
        << P.Name << ": outcome " << O.toString() << " not allowed";
    return true;
  });
}

} // namespace

TEST(FlatSim, MessagePassingOutcomes) {
  FlatResult R = runFlat(armMP(false, false));
  // Plain MP: different-location accesses commit out of order on both
  // sides, so all four outcomes — including the stale message — appear
  // operationally, just as on hardware.
  EXPECT_TRUE(R.Outcomes.count("1:r0=0 1:r1=0"));
  EXPECT_TRUE(R.Outcomes.count("1:r0=1 1:r1=1"));
  EXPECT_TRUE(R.Outcomes.count("1:r0=0 1:r1=1"));
  EXPECT_TRUE(R.Outcomes.count("1:r0=1 1:r1=0"));
}

TEST(FlatSim, StoreBufferingObservedPlain) {
  // SB's weak outcome comes from W->R commit reordering, which the
  // simulator does model (no preserved order between a store and a later
  // load of a different location).
  FlatResult R = runFlat(armSB(false));
  EXPECT_TRUE(R.Outcomes.count("0:r0=0 1:r0=0"));
}

TEST(FlatSim, StoreBufferingForbiddenWithDmb) {
  FlatResult R = runFlat(armSB(true));
  EXPECT_FALSE(R.Outcomes.count("0:r0=0 1:r0=0"));
}

TEST(FlatSim, ReleaseAcquireMPForbidden) {
  FlatResult R = runFlat(armMP(true, true));
  EXPECT_FALSE(R.Outcomes.count("1:r0=1 1:r1=0"));
}

TEST(FlatSim, PreservedOrderShape) {
  ArmProgram P = armMP(true, true);
  ExecutionEngine().forEachSkeleton(P, [&](const ArmSkeleton &S) {
    Relation Order = flatPreservedOrder(S.Exec);
    // Everything before a release store is preserved: W(msg) -> Wrel(flag).
    EXPECT_TRUE(Order.get(1, 2));
    // An acquire load orders everything after it: Racq(flag) -> R(msg).
    EXPECT_TRUE(Order.get(3, 4));
    return true;
  });
}

TEST(FlatSim, PlainAccessesUnordered) {
  ArmProgram P = armSB(false);
  ExecutionEngine().forEachSkeleton(P, [&](const ArmSkeleton &S) {
    Relation Order = flatPreservedOrder(S.Exec);
    // Store then load of a different location: not preserved.
    EXPECT_FALSE(Order.get(1, 2));
    return true;
  });
}

TEST(FlatSim, OverlappingAccessesPreserved) {
  ArmProgram P(4);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1);
  T0.load(2, 2); // overlaps the store
  ExecutionEngine().forEachSkeleton(P, [&](const ArmSkeleton &S) {
    Relation Order = flatPreservedOrder(S.Exec);
    EXPECT_TRUE(Order.get(1, 2));
    return true;
  });
}

TEST(FlatSim, SoundnessOnClassicShapes) {
  expectSoundOn(armMP(false, false));
  expectSoundOn(armMP(true, false));
  expectSoundOn(armMP(false, true));
  expectSoundOn(armMP(true, true));
  expectSoundOn(armSB(false));
  expectSoundOn(armSB(true));
  expectSoundOn(armLB(false));
  expectSoundOn(armLB(true));
}

TEST(FlatSim, SoundnessOnMixedSizeShapes) {
  // Word write vs two byte reads.
  ArmProgram P(2);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 2, 0x0201);
  ArmThreadBuilder T1 = P.thread();
  T1.load(0, 1);
  T1.load(1, 1);
  expectSoundOn(P);
  // Two byte writes vs a word read.
  ArmProgram Q(2);
  ArmThreadBuilder S0 = Q.thread();
  S0.store(0, 1, 1);
  ArmThreadBuilder S1 = Q.thread();
  S1.store(1, 1, 2);
  ArmThreadBuilder S2 = Q.thread();
  S2.load(0, 2);
  expectSoundOn(Q);
}

TEST(FlatSim, SoundnessWithExclusives) {
  ArmProgram P(4);
  ArmThreadBuilder T0 = P.thread();
  T0.load(0, 4, true, true, 0, -1, 0);
  T0.store(0, 4, 1, true, true, 0, -1, 0);
  ArmThreadBuilder T1 = P.thread();
  T1.load(0, 4, true, true, 0, -1, 1);
  T1.store(0, 4, 2, true, true, 0, -1, 1);
  expectSoundOn(P);
  // The simulator's exclusives are genuinely atomic: both pairs reading 0
  // never appears operationally.
  FlatResult R = runFlat(P);
  EXPECT_FALSE(R.Outcomes.count("0:r0=0 1:r0=0"));
}

TEST(FlatSim, ConditionalSpeculation) {
  // A load behind a branch can commit early (ctrl does not order R->R),
  // but wrong-path executions are squashed: constraints still hold.
  ArmProgram P(8);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1);
  ArmThreadBuilder T1 = P.thread();
  Reg F = T1.load(0, 4);
  T1.ifEq(F, 1, [](ArmThreadBuilder &B) { B.load(4, 4); });
  forEachFlatExecution(P, [&](const ArmExecution &X, const Outcome &O) -> bool {
    uint64_t FlagValue = 0;
    EXPECT_TRUE(O.lookup(1, 0, FlagValue));
    uint64_t Guarded;
    if (O.lookup(1, 1, Guarded)) {
      EXPECT_EQ(FlagValue, 1u) << "guarded load ran despite flag!=1";
    }
    (void)X;
    return true;
  });
}

TEST(FlatSim, DistinctExecutionsDeduplicated) {
  // A single-threaded program has exactly one operational execution
  // however many interleavings the scheduler tries.
  ArmProgram P(4);
  ArmThreadBuilder T0 = P.thread();
  T0.store(0, 4, 1);
  T0.load(0, 4);
  FlatResult R = runFlat(P);
  EXPECT_EQ(R.DistinctExecutions, 1u);
  EXPECT_TRUE(R.Outcomes.count("0:r0=1"));
}
