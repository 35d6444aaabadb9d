//===- tests/enumerator_test.cpp - JS outcome enumeration -----------------===//

#include "engine/ExecutionEngine.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(Enumerator, Fig1AllowedOutcomes) {
  // §2: either the message passes completely (r0=5, r1=3) or the flag is
  // not yet set (r0=0); the stale outcome r0=5, r1=0 is forbidden.
  EnumerationResult R =
      ExecutionEngine().enumerate(fig1Program(), JsModel(ModelSpec::revised()));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 5}, {1, 1, 3}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0}})));
  EXPECT_FALSE(R.allows(outcome({{1, 0, 5}, {1, 1, 0}})));
  EXPECT_EQ(R.Allowed.size(), 2u);
}

TEST(Enumerator, Fig1SameUnderOriginalModel) {
  EnumerationResult R = ExecutionEngine().enumerate(
      fig1Program(), JsModel(ModelSpec::original()));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 5}, {1, 1, 3}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0}})));
  EXPECT_FALSE(R.allows(outcome({{1, 0, 5}, {1, 1, 0}})));
}

TEST(Enumerator, Fig1NonAtomicFlagAllowsStaleMessage) {
  // §2: replacing either atomic with a non-atomic re-admits r0=5 ∧ r1=0.
  Program P(1024);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 3);
  T0.store(Acc::u32(4), 5); // plain flag write
  ThreadBuilder T1 = P.thread();
  Reg R0 = T1.load(Acc::u32(4).sc());
  T1.ifEq(R0, 5, [&](ThreadBuilder &B) { B.load(Acc::u32(0)); });
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 5}, {1, 1, 0}})));
}

TEST(Enumerator, ScStoreBufferingForbidden) {
  // SB with all-SC accesses: the both-zero outcome is forbidden.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  T0.load(Acc::u32(4).sc());
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u32(4).sc(), 1);
  T1.load(Acc::u32(0).sc());
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_FALSE(R.allows(outcome({{0, 0, 0}, {1, 0, 0}})));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 0}, {1, 0, 1}})));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 1}, {1, 0, 0}})));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 1}, {1, 0, 1}})));
}

TEST(Enumerator, UnorderedStoreBufferingAllowed) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.load(Acc::u32(4));
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u32(4), 1);
  T1.load(Acc::u32(0));
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 0}, {1, 0, 0}})));
  EXPECT_EQ(R.Allowed.size(), 4u);
}

TEST(Enumerator, CoherenceOnUnorderedAccesses) {
  // CoRR on Unordered accesses: JavaScript's Unordered mode is extremely
  // weak; without synchronization both read orders are observable.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.store(Acc::u32(0), 2);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(0));
  T1.load(Acc::u32(0));
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 2}, {1, 1, 1}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 2}})));
}

TEST(Enumerator, ScCoherenceForbidden) {
  // The same shape with SC accesses is coherent.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  T0.store(Acc::u32(0).sc(), 2);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(0).sc());
  T1.load(Acc::u32(0).sc());
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_FALSE(R.allows(outcome({{1, 0, 2}, {1, 1, 1}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 1}, {1, 1, 2}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 2}, {1, 1, 2}})));
}

TEST(Enumerator, Fig6OutcomeForbiddenOriginalAllowedRevised) {
  // The §3.1 discovery at program level.
  Program P = fig6Program();
  EnumerationResult Orig =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::original()));
  EXPECT_FALSE(Orig.allows(fig6Outcome()))
      << "the original model forbids the ARMv8-observable outcome";
  EnumerationResult Rev =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_TRUE(Rev.allows(fig6Outcome()))
      << "the revised model allows it (supporting the compilation scheme)";
}

TEST(Enumerator, Fig8OutcomeAllowedOriginalForbiddenRevised) {
  Program P = fig8Program();
  EnumerationResult Orig =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::original()));
  EXPECT_TRUE(Orig.allows(fig8Outcome()));
  EnumerationResult Rev =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_FALSE(Rev.allows(fig8Outcome()));
}

TEST(Enumerator, ExchangeSerializes) {
  // Two exchanges on one cell: exactly one reads 0, outcomes {0,1} or
  // {1... wait, values: T0 xchg -> 1, T1 xchg -> 2.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.exchange(Acc::u32(0), 1);
  ThreadBuilder T1 = P.thread();
  T1.exchange(Acc::u32(0), 2);
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 0}, {1, 0, 1}})));
  EXPECT_TRUE(R.allows(outcome({{0, 0, 2}, {1, 0, 0}})));
  EXPECT_FALSE(R.allows(outcome({{0, 0, 0}, {1, 0, 0}})))
      << "both exchanges reading the initial value would lose an update";
  EXPECT_FALSE(R.allows(outcome({{0, 0, 2}, {1, 0, 1}})))
      << "mutual reads would be an rf cycle";
}

TEST(Enumerator, MixedSizeHalfwordObservesWordWrite) {
  // A 16-bit read overlapping a 32-bit write observes the matching bytes.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 0x01020304);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u16(2));
  EnumerationResult R =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0x0102}})));
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0}})));
  // Mixing write and Init bytes inside the halfword is also possible
  // (relaxed mixed-size behaviour): byte2 from the write, byte3 from Init.
  EXPECT_TRUE(R.allows(outcome({{1, 0, 0x0002}})));
}

TEST(Enumerator, ForEachCandidateCountsJustifications) {
  // One write, one read of the same cell: the read can take each byte from
  // the write or from Init: 2^4 justifications.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 0x01010101);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(0));
  uint64_t Count = 0;
  ExecutionEngine().forEachCandidate(P, [&](const CandidateExecution &CE,
                                            const Outcome &O) {
    (void)O;
    EXPECT_TRUE(CE.checkWellFormed());
    ++Count;
    return true;
  });
  EXPECT_EQ(Count, 16u);
}

TEST(Enumerator, ScDrfHoldsForFig1) {
  ScDrfReport Report =
      ExecutionEngine().scDrf(fig1Program(), JsModel(ModelSpec::revised()));
  EXPECT_TRUE(Report.DataRaceFree);
  EXPECT_TRUE(Report.AllValidExecutionsSC);
  EXPECT_TRUE(Report.holds());
}

TEST(Enumerator, ScDrfFailsForFig8UnderOriginalModel) {
  ScDrfReport Report =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::original()));
  EXPECT_TRUE(Report.DataRaceFree) << "the program is DRF";
  EXPECT_FALSE(Report.AllValidExecutionsSC)
      << "yet a non-SC execution is allowed";
  EXPECT_FALSE(Report.holds());
  ASSERT_TRUE(Report.NonScWitness.has_value());
}

TEST(Enumerator, ScDrfRestoredForFig8ByRevisedModel) {
  ScDrfReport Report =
      ExecutionEngine().scDrf(fig8Program(), JsModel(ModelSpec::revised()));
  EXPECT_TRUE(Report.holds());
  EXPECT_TRUE(Report.AllValidExecutionsSC);
}

TEST(Enumerator, RacyProgramIsVacuouslyScDrf) {
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(0));
  ScDrfReport Report =
      ExecutionEngine().scDrf(P, JsModel(ModelSpec::revised()));
  EXPECT_FALSE(Report.DataRaceFree);
  EXPECT_TRUE(Report.holds()) << "SC-DRF is vacuous for racy programs";
  ASSERT_TRUE(Report.RaceWitness.has_value());
}

TEST(Enumerator, OutcomeStringsSorted) {
  EnumerationResult R =
      ExecutionEngine().enumerate(fig1Program(), JsModel(ModelSpec::revised()));
  auto Strings = R.outcomeStrings();
  EXPECT_EQ(Strings.size(), 2u);
}
