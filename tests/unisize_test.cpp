//===- tests/unisize_test.cpp - Uni-size model and the reduction ----------===//

#include "unisize/Reduction.h"

#include "engine/ExecutionEngine.h"

#include "TestUtil.h"
#include "core/Validity.h"
#include "exec/Enumerator.h"
#include "support/LinearExtensions.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

/// Uni-size message passing: Init(x), Init(y), Wx=1, Wy_SC=1 | Ry_SC, Rx.
UniExecution uniMP(uint64_t FlagRead, uint64_t MsgRead) {
  std::vector<UniEvent> Evs;
  Evs.push_back(makeUniInit(0, 0));
  Evs.push_back(makeUniInit(1, 1));
  Evs.push_back(makeUniWrite(2, 0, Mode::Unordered, 0, 1));
  Evs.push_back(makeUniWrite(3, 0, Mode::SeqCst, 1, 1));
  Evs.push_back(makeUniRead(4, 1, Mode::SeqCst, 1, FlagRead));
  Evs.push_back(makeUniRead(5, 1, Mode::Unordered, 0, MsgRead));
  UniExecution X(std::move(Evs));
  X.Sb.set(2, 3);
  X.Sb.set(4, 5);
  X.Rf.set(FlagRead ? 3 : 1, 4);
  X.Rf.set(MsgRead ? 2 : 0, 5);
  return X;
}

} // namespace

TEST(UniModel, MessagePassingGuarantee) {
  // Flag seen set, message received: valid.
  EXPECT_TRUE(isUniValidForSomeTot(uniMP(1, 1)));
  // Flag unseen: both message values fine.
  EXPECT_TRUE(isUniValidForSomeTot(uniMP(0, 0)));
  EXPECT_TRUE(isUniValidForSomeTot(uniMP(0, 1)));
  // Flag seen set but stale message: HBC(3)-uni violation.
  EXPECT_FALSE(isUniValidForSomeTot(uniMP(1, 0)));
}

TEST(UniModel, WellFormedness) {
  UniExecution X = uniMP(1, 1);
  std::string Err;
  EXPECT_TRUE(X.checkWellFormed(&Err)) << Err;
  X.Rf.clear(3, 4);
  EXPECT_FALSE(X.checkWellFormed());
}

TEST(UniModel, ScAtomicsTotalOrder) {
  // Uni-size SB with SC accesses: both-zero forbidden.
  std::vector<UniEvent> Evs;
  Evs.push_back(makeUniInit(0, 0));
  Evs.push_back(makeUniInit(1, 1));
  Evs.push_back(makeUniWrite(2, 0, Mode::SeqCst, 0, 1));
  Evs.push_back(makeUniRead(3, 0, Mode::SeqCst, 1, 0));
  Evs.push_back(makeUniWrite(4, 1, Mode::SeqCst, 1, 1));
  Evs.push_back(makeUniRead(5, 1, Mode::SeqCst, 0, 0));
  UniExecution X(std::move(Evs));
  X.Sb.set(2, 3);
  X.Sb.set(4, 5);
  X.Rf.set(1, 3); // reads Init(y)
  X.Rf.set(0, 5); // reads Init(x)
  EXPECT_FALSE(isUniValidForSomeTot(X));
}

TEST(Reduction, Fig2Reduces) {
  CandidateExecution CE = fig2Execution();
  std::string Why;
  ASSERT_TRUE(isUniSizeReducible(CE, &Why)) << Why;
  ReductionResult RR = reduceToUniSize(CE);
  // Two footprints -> two locations, two uni Inits + 4 events.
  EXPECT_EQ(RR.Uni.numEvents(), 6u);
  std::string Err;
  EXPECT_TRUE(RR.Uni.checkWellFormed(&Err)) << Err;
  // Validity agrees.
  EXPECT_TRUE(isUniValidForSomeTot(RR.Uni));
}

TEST(Reduction, PartialOverlapIsNotReducible) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::Unordered, 2, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 2; K < 6; ++K)
    CE.Rbf.push_back({K, K < 4 ? 1u : 0u, 2});
  CE.Events[2].ReadBytes[0] = 0; // byte 2 of value 1 is 0
  std::string Why;
  EXPECT_FALSE(isUniSizeReducible(CE, &Why));
  EXPECT_NE(Why.find("partially overlap"), std::string::npos);
}

TEST(Reduction, TearingReadIsNotReducible) {
  CandidateExecution CE = fig14Execution();
  std::string Why;
  EXPECT_FALSE(isUniSizeReducible(CE, &Why));
  EXPECT_NE(Why.find("tears"), std::string::npos);
}

TEST(Reduction, TotCarriesOver) {
  CandidateExecution CE = fig2Execution();
  Relation Tot;
  ASSERT_TRUE(isValidForSomeTot(CE, ModelSpec::revised(), &Tot));
  CE.Tot = Tot;
  ReductionResult RR = reduceToUniSize(CE);
  ASSERT_EQ(RR.Uni.Tot.size(), RR.Uni.numEvents());
  EXPECT_TRUE(
      RR.Uni.Tot.isStrictTotalOrderOn(RR.Uni.allEventsMask()));
  EXPECT_TRUE(isUniValid(RR.Uni));
}

TEST(Reduction, ValidityEquivalenceOnEnumeratedExecutions) {
  // §6.3's theorem, checked exhaustively on a program whose executions are
  // all uni-size-reducible or skipped: same-width accesses, two cells.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.store(Acc::u32(4).sc(), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(4).sc());
  T1.load(Acc::u32(0));
  ReductionScan Scan =
      scanReductionEquivalence(ExecutionEngine(), P, ModelSpec::revised());
  EXPECT_EQ(Scan.Mismatches, 0u);
  EXPECT_GE(Scan.Reducible, 4u);
  EXPECT_GT(Scan.Skipped, 0u) << "byte-mixing candidates do exist";
}

TEST(Reduction, ValidityEquivalencePerTot) {
  // Stronger form: validity agrees for each concrete tot, not just
  // existentially.
  CandidateExecution CE = fig2Execution();
  DerivedRelations D = DerivedRelations::compute(CE, SwDefKind::Simplified);
  unsigned Tots = 0;
  forEachLinearExtension(
      D.Hb, CE.allEventsMask(), [&](const std::vector<unsigned> &Seq) {
        CandidateExecution WithTot = CE;
        WithTot.Tot = totalOrderOver(Seq, CE.numEvents());
        ReductionResult RR = reduceToUniSize(WithTot);
        EXPECT_EQ(isValid(WithTot, ModelSpec::revised()),
                  isUniValid(RR.Uni));
        return ++Tots < 64;
      });
  EXPECT_GT(Tots, 0u);
}

TEST(Reduction, RMWReduces) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRMW(1, 0, 0, 4, 0, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1});
  ASSERT_TRUE(isUniSizeReducible(CE));
  ReductionResult RR = reduceToUniSize(CE);
  EXPECT_EQ(RR.Uni.numEvents(), 2u);
  EXPECT_TRUE(RR.Uni.Events[1].isRMW());
  EXPECT_TRUE(isUniValidForSomeTot(RR.Uni));
}

TEST(Reduction, DistinctBlocksGetDistinctLocations) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4, 0));
  Evs.push_back(makeInit(1, 4, 1));
  Evs.push_back(makeWrite(2, 0, Mode::Unordered, 0, 4, 1, true, 0));
  Evs.push_back(makeWrite(3, 1, Mode::Unordered, 0, 4, 2, true, 1));
  CandidateExecution CE(std::move(Evs));
  ASSERT_TRUE(isUniSizeReducible(CE));
  ReductionResult RR = reduceToUniSize(CE);
  EXPECT_NE(RR.Uni.Events[RR.UniOfMixed[2]].Loc,
            RR.Uni.Events[RR.UniOfMixed[3]].Loc);
}

TEST(Reduction, CyclicTotIsDroppedNotTruncated) {
  // The audited Relation::topologicalOrder call site (PR 4/PR 5): a
  // malformed cyclic Tot on the mixed execution must leave the reduced
  // uni execution without a tot — never build one from a truncated order.
  CandidateExecution CE = fig2Execution();
  unsigned N = CE.numEvents();
  Relation Cyclic(N);
  for (unsigned A = 0; A < N; ++A)
    Cyclic.set(A, (A + 1) % N); // a full cycle: count()>0, hasTot() true
  CE.Tot = Cyclic;
  ASSERT_TRUE(CE.hasTot());
  ReductionResult RR = reduceToUniSize(CE);
  EXPECT_TRUE(RR.Uni.Tot.empty())
      << "a cyclic tot must not produce a (truncated) uni tot";

  // A genuine tot still carries over (control for the test itself).
  Relation Tot;
  ASSERT_TRUE(isValidForSomeTot(CE, ModelSpec::revised(), &Tot));
  CE.Tot = Tot;
  ReductionResult Ok = reduceToUniSize(CE);
  EXPECT_TRUE(Ok.Uni.Tot.isStrictTotalOrderOn(Ok.Uni.allEventsMask()));
}
