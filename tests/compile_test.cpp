//===- tests/compile_test.cpp - Compilation scheme, translation, tot ------===//

#include "compile/TotConstruction.h"

#include "armv8/ArmEnumerator.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(Compile, SchemeMapsModesPerTable) {
  // The §5.1 instruction table.
  Program P(16);
  ThreadBuilder T0 = P.thread();
  T0.load(Acc::u32(0).sc());   // ldar
  T0.store(Acc::u32(4).sc(), 1); // stlr
  T0.load(Acc::u32(8));        // ldr
  T0.store(Acc::u32(12), 2);   // str
  CompiledProgram CP = compileToArm(P);
  const std::vector<ArmInstr> &Body = CP.Arm.threadBody(0);
  ASSERT_EQ(Body.size(), 4u);
  EXPECT_TRUE(Body[0].Acquire);
  EXPECT_FALSE(Body[0].Exclusive);
  EXPECT_TRUE(Body[1].Release);
  EXPECT_FALSE(Body[2].Acquire);
  EXPECT_FALSE(Body[3].Release);
}

TEST(Compile, ExchangeBecomesExclusivePair) {
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.exchange(Acc::u32(0), 9);
  CompiledProgram CP = compileToArm(P);
  const std::vector<ArmInstr> &Body = CP.Arm.threadBody(0);
  ASSERT_EQ(Body.size(), 2u);
  EXPECT_EQ(Body[0].K, ArmInstr::Kind::Load);
  EXPECT_TRUE(Body[0].Acquire);
  EXPECT_TRUE(Body[0].Exclusive);
  EXPECT_EQ(Body[1].K, ArmInstr::Kind::Store);
  EXPECT_TRUE(Body[1].Release);
  EXPECT_TRUE(Body[1].Exclusive);
  EXPECT_EQ(Body[0].RmwTag, Body[1].RmwTag);
  EXPECT_EQ(Body[0].SourceTag, Body[1].SourceTag);
}

TEST(Compile, UnalignedDataViewSplitsPerByte) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::dataView(1, 2), 0xAABB);
  T0.load(Acc::dataView(3, 2));
  CompiledProgram CP = compileToArm(P);
  const std::vector<ArmInstr> &Body = CP.Arm.threadBody(0);
  ASSERT_EQ(Body.size(), 4u);
  EXPECT_EQ(Body[0].Offset, 1u);
  EXPECT_EQ(Body[0].Width, 1u);
  EXPECT_EQ(Body[0].Value, 0xBBu);
  EXPECT_EQ(Body[1].Offset, 2u);
  EXPECT_EQ(Body[1].Value, 0xAAu);
  EXPECT_EQ(Body[0].SourceTag, Body[1].SourceTag);
  EXPECT_EQ(Body[2].K, ArmInstr::Kind::Load);
  EXPECT_EQ(Body[3].Offset, 4u);
}

TEST(Compile, ConditionalsLowerToBranches) {
  Program P = fig1Program();
  CompiledProgram CP = compileToArm(P);
  const std::vector<ArmInstr> &Body = CP.Arm.threadBody(1);
  ASSERT_EQ(Body.size(), 2u);
  EXPECT_EQ(Body[1].K, ArmInstr::Kind::IfEq);
  ASSERT_EQ(Body[1].Body.size(), 1u);
  EXPECT_EQ(Body[1].Body[0].K, ArmInstr::Kind::Load);
}

TEST(Compile, TranslationRoundTripsEvents) {
  CompiledProgram CP = compileToArm(fig6Program());
  unsigned Seen = 0;
  forEachArmExecution(CP.Arm, [&](const ArmExecution &X, const Outcome &O) {
    (void)O;
    TranslationResult TR = translateExecution(X, CP);
    std::string Err;
    EXPECT_TRUE(TR.Js.checkWellFormed(&Err)) << Err;
    // 1 Init + 6 accesses on the JS side.
    EXPECT_EQ(TR.Js.numEvents(), 7u);
    // Modes follow the sources.
    unsigned ScCount = 0, UnCount = 0;
    for (const Event &E : TR.Js.Events) {
      if (E.Ord == Mode::SeqCst)
        ++ScCount;
      if (E.Ord == Mode::Unordered)
        ++UnCount;
    }
    EXPECT_EQ(ScCount, 5u);
    EXPECT_EQ(UnCount, 1u);
    // rbf carries over edge-for-edge.
    EXPECT_EQ(TR.Js.Rbf.size(), X.Rbf.size());
    return ++Seen < 32; // a sample is enough
  });
  EXPECT_GT(Seen, 0u);
}

TEST(Compile, TranslationMergesExclusivePairs) {
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.exchange(Acc::u32(0), 9);
  CompiledProgram CP = compileToArm(P);
  forEachArmExecution(CP.Arm, [&](const ArmExecution &X, const Outcome &O) {
    (void)O;
    TranslationResult TR = translateExecution(X, CP);
    // Init + one RMW event.
    EXPECT_EQ(TR.Js.numEvents(), 2u);
    EXPECT_TRUE(TR.Js.Events[1].isRMW());
    return true;
  });
}

TEST(Compile, TranslationMergesSplitBytes) {
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::dataView(1, 2), 0xBEEF);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::dataView(1, 2));
  CompiledProgram CP = compileToArm(P);
  bool SawFullRead = false;
  forEachArmExecution(CP.Arm, [&](const ArmExecution &X, const Outcome &O) {
    (void)O;
    TranslationResult TR = translateExecution(X, CP);
    EXPECT_EQ(TR.Js.numEvents(), 3u); // Init + store + load
    const Event &Load = TR.Js.Events[2];
    EXPECT_EQ(Load.ReadBytes.size(), 2u);
    uint64_t V = 0;
    if (TR.JsOutcome.lookup(1, 0, V) && V == 0xBEEF)
      SawFullRead = true;
    return true;
  });
  EXPECT_TRUE(SawFullRead);
}

TEST(Compile, TotConstructionWitnessesFig6) {
  // For every consistent ARM execution of the compiled Fig. 6 program, the
  // constructed tot makes the translated execution valid in the REVISED
  // model (Thm 6.2's witnessing construction, §5.3).
  CompileCheckResult R =
      checkCompilationForProgram(fig6Program(), ModelSpec::revised());
  EXPECT_GT(R.ArmConsistent, 0u);
  EXPECT_TRUE(R.holds());
  EXPECT_TRUE(R.constructionAlwaysWorks())
      << "construction failed on " << R.ArmConsistent << " vs "
      << R.ConstructionWitnessed;
}

TEST(Compile, OriginalModelFailsCompilationOnFig6) {
  // §3.1: under the original model, some ARM-consistent execution of the
  // compiled program has no valid JS justification.
  CompileCheckResult R =
      checkCompilationForProgram(fig6Program(), ModelSpec::original());
  EXPECT_FALSE(R.holds());
  ASSERT_TRUE(R.FirstFailure.has_value());
}

TEST(Compile, CompilationHoldsOnClassicPrograms) {
  for (const Program &P : {fig1Program(), fig8Program()}) {
    CompileCheckResult R =
        checkCompilationForProgram(P, ModelSpec::revised());
    EXPECT_TRUE(R.holds()) << P.Name;
    EXPECT_TRUE(R.constructionAlwaysWorks()) << P.Name;
  }
}

TEST(Compile, CompilationHoldsWithRmwAndMixedSize) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.exchange(Acc::u32(0), 1);
  T0.store(Acc::u16(4), 2);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u16(4).sc());
  T1.load(Acc::u16(6));
  CompileCheckResult R = checkCompilationForProgram(P, ModelSpec::revised());
  EXPECT_TRUE(R.holds());
  EXPECT_TRUE(R.constructionAlwaysWorks());
}

TEST(Compile, CompilationHoldsWithUnalignedDataView) {
  // Not covered by the paper's Coq proof (aligned only), but the bounded
  // check passes on this small instance, via existential validity.
  Program P(4);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::dataView(1, 2), 0x0102);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::dataView(1, 2));
  CompileCheckResult R = checkCompilationForProgram(P, ModelSpec::revised());
  EXPECT_TRUE(R.holds());
}

TEST(TotConstruction, CyclicBaseIsRejectedNotTruncated) {
  // The audited Relation::topologicalOrder call site (PR 4/PR 5):
  // constructTot's base relation doubles as the acyclicity check, so a
  // cyclic base (malformed input — the Thm 6.2 proof rules it out for
  // consistent executions) must return false, never a tot built from a
  // truncated topological order.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 1, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 1, 1, 1));
  TranslationResult TR;
  TR.Js = CandidateExecution(std::move(Evs));
  TR.Js.Asw.set(1, 2);
  TR.Js.Asw.set(2, 1); // the cycle

  std::vector<ArmEvent> ArmEvs;
  ArmEvs.push_back(makeArmInit(0, 4));
  ArmExecution X(std::move(ArmEvs));
  TR.JsOfArm = {0};

  Relation Tot = totalOrderOver({0, 1, 2}, 3); // sentinel content
  EXPECT_FALSE(constructTot(TR, X, &Tot));

  // Dropping the cycle makes the construction succeed with a genuine
  // strict total order (control for the test setup).
  TR.Js.Asw.clear(2, 1);
  EXPECT_TRUE(constructTot(TR, X, &Tot));
  EXPECT_TRUE(Tot.isStrictTotalOrderOn(TR.Js.allEventsMask()));
}
