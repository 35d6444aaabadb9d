//===- tests/gen_test.cpp - diy-style corpus generation -------------------===//

#include "gen/Diy.h"

#include "engine/ExecutionEngine.h"
#include "flatsim/FlatSim.h"

#include <gtest/gtest.h>
#include <set>

using namespace jsmm;

TEST(Diy, EdgeInfoShapes) {
  EXPECT_TRUE(edgeInfo(EdgeKind::Rfe).SrcIsWrite);
  EXPECT_FALSE(edgeInfo(EdgeKind::Rfe).DstIsWrite);
  EXPECT_TRUE(edgeInfo(EdgeKind::Rfe).External);
  EXPECT_TRUE(edgeInfo(EdgeKind::Rfe).SameLoc);
  EXPECT_FALSE(edgeInfo(EdgeKind::PodRW).SameLoc);
  EXPECT_FALSE(edgeInfo(EdgeKind::PodRW).External);
  EXPECT_FALSE(edgeInfo(EdgeKind::CtrldRW).SrcIsWrite);
}

TEST(Diy, BuildsMessagePassing) {
  // MP as a cycle: Rfe (flag) ; PodRR ; Fre (message) ; PodWW — in diy
  // order starting from the writer: PodWW, Rfe, PodRR, Fre.
  std::vector<EdgeKind> Cycle = {EdgeKind::PodWW, EdgeKind::Rfe,
                                 EdgeKind::PodRR, EdgeKind::Fre};
  DiyTest T;
  ASSERT_TRUE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T));
  EXPECT_EQ(T.Prog.numThreads(), 2u);
  // Two locations, byte layout.
  EXPECT_EQ(T.Prog.bufferSizes()[0], 2u);
  EXPECT_EQ(T.Name, "PodWW+Rfe+PodRR+Fre");
}

TEST(Diy, RejectsKindMismatch) {
  // Rfe must start at a write; following Rfe with Coe (write source) is a
  // mismatch.
  std::vector<EdgeKind> Cycle = {EdgeKind::Rfe, EdgeKind::Coe};
  DiyTest T;
  EXPECT_FALSE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T));
}

TEST(Diy, RejectsSingleExternalEdge) {
  std::vector<EdgeKind> Cycle = {EdgeKind::PosWR, EdgeKind::Fre};
  DiyTest T;
  // PosWR internal + Fre external: only one external edge.
  EXPECT_FALSE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T));
}

TEST(Diy, LocationWrapMustBeConsistent) {
  // PodWW changes location, so a same-location closing edge cannot return
  // to location 0.
  std::vector<EdgeKind> Cycle = {EdgeKind::PodWW, EdgeKind::Coe};
  DiyTest T;
  EXPECT_FALSE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T))
      << "W(x);W(y) closed by same-loc Coe to x is inconsistent";
}

TEST(Diy, TwoEdgeCoherenceCycle) {
  std::vector<EdgeKind> Cycle = {EdgeKind::Coe, EdgeKind::Coe};
  DiyTest T;
  ASSERT_TRUE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T));
  EXPECT_EQ(T.Prog.numThreads(), 2u);
  EXPECT_EQ(T.Prog.bufferSizes()[0], 1u);
}

TEST(Diy, VariantsChangeLayout) {
  std::vector<EdgeKind> Cycle = {EdgeKind::PodWW, EdgeKind::Rfe,
                                 EdgeKind::PodRR, EdgeKind::Fre};
  DiyTest Wide, Overlap;
  ASSERT_TRUE(buildCycleProgram(Cycle, SizeVariant::Wide, 4, &Wide));
  ASSERT_TRUE(buildCycleProgram(Cycle, SizeVariant::Overlap, 4, &Overlap));
  EXPECT_EQ(Wide.Prog.bufferSizes()[0], 4u);    // 2 locs x stride 2
  EXPECT_EQ(Overlap.Prog.bufferSizes()[0], 3u); // stride 1, width 2
}

TEST(Diy, DependencyEdgesAnnotateInstructions) {
  std::vector<EdgeKind> Cycle = {EdgeKind::AddrdRW, EdgeKind::Rfe,
                                 EdgeKind::CtrldRW, EdgeKind::Rfe};
  DiyTest T;
  ASSERT_TRUE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T));
  bool SawAddr = false, SawCtrl = false;
  for (unsigned Th = 0; Th < T.Prog.numThreads(); ++Th)
    for (const ArmInstr &I : T.Prog.threadBody(Th)) {
      SawAddr |= I.AddrDepOn >= 0;
      SawCtrl |= I.CtrlDepOn >= 0;
    }
  EXPECT_TRUE(SawAddr);
  EXPECT_TRUE(SawCtrl);
}

TEST(Diy, FenceEdgesInsertBarriers) {
  std::vector<EdgeKind> Cycle = {EdgeKind::DmbdWW, EdgeKind::Rfe,
                                 EdgeKind::DmbLddRR, EdgeKind::Fre};
  DiyTest T;
  ASSERT_TRUE(buildCycleProgram(Cycle, SizeVariant::Byte, 4, &T));
  unsigned FullFences = 0, LdFences = 0;
  for (unsigned Th = 0; Th < T.Prog.numThreads(); ++Th)
    for (const ArmInstr &I : T.Prog.threadBody(Th)) {
      FullFences += I.K == ArmInstr::Kind::DmbFull;
      LdFences += I.K == ArmInstr::Kind::DmbLd;
    }
  EXPECT_EQ(FullFences, 1u);
  EXPECT_EQ(LdFences, 1u);
}

TEST(Diy, CorpusIsDeduplicatedAndNamed) {
  DiyConfig Cfg;
  Cfg.MinEdges = 2;
  Cfg.MaxEdges = 3;
  Cfg.IncludeWide = false;
  Cfg.IncludeOverlap = false;
  std::vector<DiyTest> Corpus = generateCorpus(Cfg);
  EXPECT_GT(Corpus.size(), 5u);
  std::set<std::string> Names;
  for (const DiyTest &T : Corpus)
    EXPECT_TRUE(Names.insert(T.Name).second) << "duplicate " << T.Name;
}

TEST(Diy, CorpusVariantsTriple) {
  DiyConfig Base;
  Base.MinEdges = 2;
  Base.MaxEdges = 2;
  Base.IncludeWide = false;
  Base.IncludeOverlap = false;
  DiyConfig Full = Base;
  Full.IncludeWide = true;
  Full.IncludeOverlap = true;
  EXPECT_EQ(generateCorpus(Full).size(), 3 * generateCorpus(Base).size());
}

TEST(Diy, GeneratedProgramsEnumerate) {
  // Every generated small test runs through both the axiomatic enumerator
  // and the simulator without tripping well-formedness checks, and is
  // operationally sound.
  DiyConfig Cfg;
  Cfg.MinEdges = 2;
  Cfg.MaxEdges = 2;
  std::vector<DiyTest> Corpus = generateCorpus(Cfg);
  ASSERT_GT(Corpus.size(), 0u);
  for (const DiyTest &T : Corpus) {
    ArmEnumerationResult Ax = ExecutionEngine().enumerate(T.Prog, Armv8Model());
    std::set<std::string> AxOut;
    for (const auto &[O, X] : Ax.Allowed) {
      (void)X;
      AxOut.insert(O.toString());
    }
    forEachFlatExecution(T.Prog,
                         [&](const ArmExecution &X, const Outcome &O) {
                           std::string Why;
                           EXPECT_TRUE(isArmConsistent(X, &Why))
                               << T.Name << ": " << Why;
                           EXPECT_TRUE(AxOut.count(O.toString())) << T.Name;
                           return true;
                         });
  }
}

TEST(Diy, ClassicNamesAppearInCorpus) {
  DiyConfig Cfg;
  Cfg.MinEdges = 4;
  Cfg.MaxEdges = 4;
  Cfg.IncludeWide = false;
  Cfg.IncludeOverlap = false;
  // Restrict the alphabet so the sweep stays fast.
  Cfg.Alphabet = {EdgeKind::Rfe, EdgeKind::Fre, EdgeKind::PodWW,
                  EdgeKind::PodRR};
  std::vector<DiyTest> Corpus = generateCorpus(Cfg);
  std::set<std::string> Names;
  for (const DiyTest &T : Corpus)
    Names.insert(T.Name);
  // The canonical rotation of the MP cycle starts at the reader.
  EXPECT_TRUE(Names.count("PodRR+Fre+PodWW+Rfe")) << "message passing";
}
