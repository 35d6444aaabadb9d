//===- tests/validity_test.cpp - Validity axioms across model variants ----===//

#include "core/Validity.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

/// A two-event execution where a read reads a write that happens-after it
/// (HBC2 violation, via asw).
CandidateExecution hbc2Violation() {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRead(1, 0, Mode::Unordered, 0, 4, 7));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 4, 7));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 2, 1});
  CE.Asw.set(1, 2); // read happens-before the write it reads from
  return CE;
}

/// A message-passing shape where the reader observes a stale message even
/// though a newer hb-ordered write exists (HBC3 violation).
CandidateExecution hbc3Violation() {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 3)); // message
  Evs.push_back(makeWrite(2, 0, Mode::SeqCst, 4, 4, 5));    // flag
  Evs.push_back(makeRead(3, 1, Mode::SeqCst, 4, 4, 5));
  Evs.push_back(makeRead(4, 1, Mode::Unordered, 0, 4, 0)); // stale!
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 2);
  CE.Sb.set(3, 4);
  for (unsigned K = 4; K < 8; ++K)
    CE.Rbf.push_back({K, 2, 3});
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 4}); // reads Init despite hb-newer write 1
  return CE;
}

} // namespace

TEST(Validity, Fig2ValidUnderAllVariants) {
  for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::armFixOnly(),
                         ModelSpec::revised()}) {
    EXPECT_TRUE(isValidForSomeTot(fig2Execution(), Spec)) << Spec.Name;
  }
}

TEST(Validity, Hbc2RejectsFutureRead) {
  CandidateExecution CE = hbc2Violation();
  DerivedTriple D = CE.derived(SwDefKind::Simplified);
  EXPECT_FALSE(checkHbConsistency2(CE, D));
  EXPECT_FALSE(isValidForSomeTot(CE, ModelSpec::revised()));
  EXPECT_FALSE(isValidForSomeTot(CE, ModelSpec::original()));
}

TEST(Validity, Hbc3RejectsStaleRead) {
  CandidateExecution CE = hbc3Violation();
  DerivedTriple D = CE.derived(SwDefKind::Simplified);
  EXPECT_TRUE(checkHbConsistency2(CE, D));
  EXPECT_FALSE(checkHbConsistency3(CE, D));
  EXPECT_FALSE(isValidForSomeTot(CE, ModelSpec::revised()));
}

TEST(Validity, Hbc3AllowsStaleReadWithoutSynchronization) {
  // Same shape but with an Unordered flag: no sw, so no hb to the message,
  // and the stale read is allowed (relaxed behaviour).
  CandidateExecution CE = hbc3Violation();
  CE.Events[2].Ord = Mode::Unordered;
  CE.Events[3].Ord = Mode::Unordered;
  EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::revised()));
  EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::original()));
}

TEST(Validity, Fig6aInvalidForAllTotInOriginalModel) {
  // The heart of §3.1: no choice of tot rescues Fig. 6a under the original
  // Sequentially Consistent Atomics rule.
  EXPECT_TRUE(isInvalidForAllTot(fig6aExecution(), ModelSpec::original()));
}

TEST(Validity, Fig6aValidInArmFixedModels) {
  EXPECT_TRUE(isValidForSomeTot(fig6aExecution(), ModelSpec::armFixOnly()));
  EXPECT_TRUE(isValidForSomeTot(fig6aExecution(), ModelSpec::revised()));
}

TEST(Validity, Fig5ShapeForbiddenByFirstAttemptOnly) {
  // The Fig. 5 shape: W_SC -tot- W_Un -tot- R_SC, all same range, with the
  // SC write synchronizing with the SC read. The first-attempt rule
  // rejects it; the second attempt (intervening write must be SC) accepts.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 4, 2));
  Evs.push_back(makeRead(3, 2, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  std::string Why;
  EXPECT_FALSE(isValid(CE, ModelSpec::original(), &Why));
  EXPECT_EQ(Why, "sequentially consistent atomics");
  EXPECT_TRUE(isValid(CE, ModelSpec::armFixOnly(), &Why)) << Why;
  // The revised rule also accepts: the intervening write is not SeqCst.
  EXPECT_TRUE(isValid(CE, ModelSpec::revised(), &Why)) << Why;
}

TEST(Validity, Fig9FirstShapeForbiddenByRevisedRule) {
  // Fig. 9, first shape: W_SC -tot- W_SC -hb- R_any, with the read reading
  // the tot-older SC write and Ew hb Er directly (not through E'w).
  // Disallowed by the revised rule (disjunct 2); the original rule has no
  // sw edge into the Unordered read through rf, so we compare against a
  // variant where only asw provides hb(E'w, Er).
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1)); // Ew
  Evs.push_back(makeWrite(2, 1, Mode::SeqCst, 0, 4, 2)); // E'w
  Evs.push_back(makeRead(3, 0, Mode::Unordered, 0, 4, 1)); // Er
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 3); // Ew hb Er
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  // Order: Init, Ew, E'w, Er — Ew tot E'w tot Er.
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  // Without hb(E'w, Er), disjunct 2 cannot fire.
  EXPECT_TRUE(isValid(CE, ModelSpec::revised()));
  // Add hb(E'w, Er) via asw: disjunct 2 fires and the revised rule rejects.
  CE.Asw.set(2, 3);
  EXPECT_FALSE(isValid(CE, ModelSpec::revised()));
  // The original/arm-fix rules fire only on sw pairs; the sw edge <2,3>
  // has no same-range write tot-between (1 is tot-before 2), so they both
  // accept — this is exactly the SC-DRF gap.
  EXPECT_TRUE(isValid(CE, ModelSpec::original()));
  EXPECT_TRUE(isValid(CE, ModelSpec::armFixOnly()));
}

TEST(Validity, Fig9SecondShapeForbiddenByRevisedRule) {
  // W_any -hb- W_SC -tot- R_SC with the read reading the older write:
  // disallowed by the revised rule (disjunct 3). The writer and the reader
  // share a thread (sb gives Ew hb Er without routing hb through W_SC).
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::SeqCst, 0, 4, 2));
  Evs.push_back(makeRead(3, 0, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 3);  // W_any hb R_SC
  CE.Asw.set(1, 2); // W_any hb W_SC (write target: no sw edge appears)
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  EXPECT_FALSE(isValid(CE, ModelSpec::revised()));
  // The original rule does not fire: <W1,R3> is not an sw edge (W1 is Un),
  // and W2 is not hb-between W1 and R3, so HBC(3) is satisfied too.
  EXPECT_TRUE(isValid(CE, ModelSpec::original()));
  EXPECT_TRUE(isValid(CE, ModelSpec::armFixOnly()));
}

TEST(Validity, InitSpecialCaseSubsumedByRevisedRule) {
  // §3.2's simplification argument: an SC read of Init with an SC write
  // tot-between is forbidden in the original model through the sw special
  // case, and in the revised model through disjunct 3 — without needing
  // the special case.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::SeqCst, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 2}); // reads Init
  CE.Tot = totalOrderOver({0, 1, 2}, 3);
  EXPECT_FALSE(isValid(CE, ModelSpec::original()));
  EXPECT_FALSE(isValid(CE, ModelSpec::revised()));
  // With the write ordered after the read, both accept.
  CE.Tot = totalOrderOver({0, 2, 1}, 3);
  EXPECT_TRUE(isValid(CE, ModelSpec::original()));
  EXPECT_TRUE(isValid(CE, ModelSpec::revised()));
}

TEST(Validity, TearFreeReadsWeakRule) {
  // A tear-free read mixing bytes of two same-range tear-free writes is
  // rejected.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 2));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 2, 0x1111, true));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 2, 0x2222, true));
  Evs.push_back(makeRead(3, 2, Mode::Unordered, 0, 2, 0x2211, true));
  CandidateExecution CE(std::move(Evs));
  CE.Rbf.push_back({0, 1, 3});
  CE.Rbf.push_back({1, 2, 3});
  DerivedTriple D = CE.derived(SwDefKind::Simplified);
  EXPECT_FALSE(checkTearFreeReads(CE, D, TearRuleKind::Weak));
  EXPECT_FALSE(isValidForSomeTot(CE, ModelSpec::revised()));
}

TEST(Validity, TearingWritesEscapeTheWeakRule) {
  // If the writes are tearing (e.g. DataView stores), mixing is allowed.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 2));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 2, 0x1111, false));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 2, 0x2222, false));
  Evs.push_back(makeRead(3, 2, Mode::Unordered, 0, 2, 0x2211, true));
  CandidateExecution CE(std::move(Evs));
  CE.Rbf.push_back({0, 1, 3});
  CE.Rbf.push_back({1, 2, 3});
  EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::revised()));
}

TEST(Validity, Fig14InitTearingWeakVsStrong) {
  CandidateExecution CE = fig14Execution();
  // Weak rule (the specification): the Init bytes do not count, so the
  // mixed read is allowed.
  EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::revised()));
  // Strong rule (§6.4): Init counts, the read tears, rejected.
  EXPECT_FALSE(isValidForSomeTot(CE, ModelSpec::revisedStrongTearFree()));
}

TEST(Validity, Hbc1RequiresTotToContainHb) {
  CandidateExecution CE = fig2Execution();
  // A tot that contradicts sb on thread 0.
  CE.Tot = totalOrderOver({0, 2, 1, 3, 4}, 5);
  std::string Why;
  EXPECT_FALSE(isValid(CE, ModelSpec::revised(), &Why));
  EXPECT_EQ(Why, "happens-before consistency (1)");
}

TEST(Validity, ValidWithExplicitTot) {
  CandidateExecution CE = fig2Execution();
  CE.Tot = totalOrderOver({0, 1, 2, 3, 4}, 5);
  std::string Why;
  EXPECT_TRUE(isValid(CE, ModelSpec::revised(), &Why)) << Why;
  EXPECT_TRUE(isValid(CE, ModelSpec::original(), &Why)) << Why;
}

TEST(Validity, WitnessTotFromExistentialCheckIsValid) {
  CandidateExecution CE = fig2Execution();
  Relation Tot;
  ASSERT_TRUE(isValidForSomeTot(CE, ModelSpec::revised(), &Tot));
  CE.Tot = Tot;
  EXPECT_TRUE(isValid(CE, ModelSpec::revised()));
  EXPECT_TRUE(CE.checkWellFormed());
}

TEST(Validity, RmwChainIsValid) {
  // Two exchanges on the same cell: 0 -> 1 -> 2.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRMW(1, 0, 0, 4, 0, 1));
  Evs.push_back(makeRMW(2, 1, 0, 4, 1, 2));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1});
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 2});
  EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::revised()));
  EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::original()));
}

TEST(Validity, ArmFixIsAWeakening) {
  // Everything the original model accepts, the ARM-fix-only model accepts
  // (on these hand-built executions).
  for (CandidateExecution CE :
       {fig2Execution(), fig6aExecution(), fig8Execution()}) {
    if (isValidForSomeTot(CE, ModelSpec::original())) {
      EXPECT_TRUE(isValidForSomeTot(CE, ModelSpec::armFixOnly()));
    }
  }
}

TEST(Validity, Fig8ValidInOriginalInvalidInRevised) {
  // §3.2: the SC-DRF violation execution is allowed by the original model
  // and rejected by the revised one.
  EXPECT_TRUE(isValidForSomeTot(fig8Execution(), ModelSpec::original()));
  EXPECT_FALSE(isValidForSomeTot(fig8Execution(), ModelSpec::revised()));
}
