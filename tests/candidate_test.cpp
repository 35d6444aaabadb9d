//===- tests/candidate_test.cpp - Candidate executions and derived rels ---===//

#include "core/CandidateExecution.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(Candidate, Fig2IsWellFormed) {
  CandidateExecution CE = fig2Execution();
  std::string Err;
  EXPECT_TRUE(CE.checkWellFormed(&Err)) << Err;
}

TEST(Candidate, Fig2ReadsFrom) {
  CandidateExecution CE = fig2Execution();
  Relation Rf = CE.readsFrom();
  EXPECT_TRUE(Rf.get(2, 3)); // flag write -> flag read
  EXPECT_TRUE(Rf.get(1, 4)); // message write -> message read
  EXPECT_EQ(Rf.count(), 2u);
}

TEST(Candidate, Fig2SynchronizesWith) {
  CandidateExecution CE = fig2Execution();
  Relation Rf = CE.readsFrom();
  for (SwDefKind Def : {SwDefKind::SpecWithInitCase, SwDefKind::Simplified}) {
    Relation Sw = CE.synchronizesWith(Def, Rf);
    EXPECT_TRUE(Sw.get(2, 3)) << "same-range SC pair must synchronize";
    EXPECT_FALSE(Sw.get(1, 4)) << "unordered pair must not synchronize";
  }
}

TEST(Candidate, Fig2HappensBeforeOrdersMessage) {
  CandidateExecution CE = fig2Execution();
  Relation Hb = CE.happensBefore(SwDefKind::Simplified);
  // sb ∪ sw chain: message write hb flag write hb(sw) flag read hb message
  // read.
  EXPECT_TRUE(Hb.get(1, 2));
  EXPECT_TRUE(Hb.get(2, 3));
  EXPECT_TRUE(Hb.get(1, 4));
  // Init is hb-before every overlapping access.
  for (EventId E = 1; E <= 4; ++E)
    EXPECT_TRUE(Hb.get(0, E));
  // No hb back-edges.
  EXPECT_FALSE(Hb.get(4, 1));
  EXPECT_FALSE(Hb.get(3, 2));
}

TEST(Candidate, InitDoesNotHappenBeforeItself) {
  CandidateExecution CE = fig2Execution();
  Relation Hb = CE.happensBefore(SwDefKind::Simplified);
  EXPECT_FALSE(Hb.get(0, 0));
}

TEST(Candidate, SpecSwIncludesInitSpecialCase) {
  // An SC read justified entirely by Init synchronizes with it under the
  // spec definition but not under the simplified one.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeRead(1, 0, Mode::SeqCst, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1});
  Relation Rf = CE.readsFrom();
  Relation SwSpec = CE.synchronizesWith(SwDefKind::SpecWithInitCase, Rf);
  EXPECT_TRUE(SwSpec.get(0, 1));
  Relation SwSimp = CE.synchronizesWith(SwDefKind::Simplified, Rf);
  EXPECT_FALSE(SwSimp.get(0, 1));
}

TEST(Candidate, SpecSwInitCaseRequiresOnlyInitWriters) {
  // A read taking one byte from a non-Init write does not get the Init
  // special case.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 1, 7));
  Evs.push_back(makeRead(2, 1, Mode::SeqCst, 0, 4, 7));
  CandidateExecution CE(std::move(Evs));
  CE.Rbf.push_back({0, 1, 2});
  for (unsigned K = 1; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 2});
  Relation Rf = CE.readsFrom();
  Relation Sw = CE.synchronizesWith(SwDefKind::SpecWithInitCase, Rf);
  EXPECT_FALSE(Sw.get(0, 2));
  EXPECT_FALSE(Sw.get(1, 2));
}

TEST(Candidate, MixedSizeSwRequiresExactRangeMatch) {
  // An SC read of 2 bytes from a 4-byte SC write: rf but not sw.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 0x01010101));
  Evs.push_back(makeRead(2, 1, Mode::SeqCst, 0, 2, 0x0101));
  CandidateExecution CE(std::move(Evs));
  CE.Rbf.push_back({0, 1, 2});
  CE.Rbf.push_back({1, 1, 2});
  Relation Rf = CE.readsFrom();
  EXPECT_TRUE(Rf.get(1, 2));
  Relation Sw = CE.synchronizesWith(SwDefKind::Simplified, Rf);
  EXPECT_FALSE(Sw.get(1, 2));
}

TEST(Candidate, AswFeedsSynchronizesWith) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 2});
  CE.Asw.set(1, 2);
  Relation Sw = CE.synchronizesWith(SwDefKind::Simplified, CE.readsFrom());
  EXPECT_TRUE(Sw.get(1, 2));
  Relation Hb = CE.happensBeforeFromSw(Sw);
  EXPECT_TRUE(Hb.get(1, 2));
}

TEST(Candidate, WellFormednessRejectsValueMismatch) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRead(1, 0, Mode::Unordered, 0, 4, /*Value=*/7));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 1}); // Init writes zeros, read claims 7
  std::string Err;
  EXPECT_FALSE(CE.checkWellFormed(&Err));
  EXPECT_NE(Err.find("value mismatch"), std::string::npos);
}

TEST(Candidate, WellFormednessRejectsMissingJustification) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRead(1, 0, Mode::Unordered, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 3; ++K) // byte 3 unjustified
    CE.Rbf.push_back({K, 0, 1});
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, WellFormednessRejectsSelfRead) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeRMW(1, 0, 0, 4, 0, 1));
  CandidateExecution CE(std::move(Evs));
  // An RMW reading from its own write (the EMME-reported bug shape).
  CE.Rbf.push_back({0, 1, 1});
  CE.Rbf.push_back({1, 1, 1});
  CE.Rbf.push_back({2, 1, 1});
  CE.Rbf.push_back({3, 1, 1});
  std::string Err;
  EXPECT_FALSE(CE.checkWellFormed(&Err));
  EXPECT_NE(Err.find("itself"), std::string::npos);
}

TEST(Candidate, WellFormednessRejectsCrossThreadSb) {
  CandidateExecution CE = fig2Execution();
  CE.Sb.set(1, 3); // thread 0 -> thread 1
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, WellFormednessRejectsPartialSbPerThread) {
  CandidateExecution CE = fig2Execution();
  CE.Sb.clear(1, 2); // thread 0's two events now unordered
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, WellFormednessAcceptsTotWitness) {
  CandidateExecution CE = fig2Execution();
  CE.Tot = totalOrderOver({0, 1, 2, 3, 4}, 5);
  std::string Err;
  EXPECT_TRUE(CE.checkWellFormed(&Err)) << Err;
  CE.Tot.clear(0, 4); // no longer total
  EXPECT_FALSE(CE.checkWellFormed());
}

TEST(Candidate, EventsWhereMask) {
  CandidateExecution CE = fig2Execution();
  BitSet ScEvents = CE.eventsWhere(
      [](const Event &E) { return E.Ord == Mode::SeqCst; });
  EXPECT_TRUE(ScEvents == wordSet(CE.numEvents(), 0b1100));
}

TEST(Candidate, RbfAcrossBlocksRejected) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4, /*Block=*/0));
  Evs.push_back(makeInit(1, 4, /*Block=*/1));
  Evs.push_back(makeRead(2, 0, Mode::Unordered, 0, 4, 0, true, /*Block=*/1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 2}); // reads block 1 from block 0's Init
  std::string Err;
  EXPECT_FALSE(CE.checkWellFormed(&Err));
  EXPECT_NE(Err.find("block"), std::string::npos);
}

TEST(Candidate, ToStringSmoke) {
  CandidateExecution CE = fig2Execution();
  std::string S = CE.toString();
  EXPECT_NE(S.find("WSC"), std::string::npos);
  EXPECT_NE(S.find("rbf"), std::string::npos);
}
