//===- tests/analysis_test.cpp - Static analysis tier ---------------------===//
//
// analysis::classify: the may-race relation and statically-DRF
// certificate, every lint kind with its position, and the SC interleaving
// enumerator against the engine's full enumeration.
//
//===----------------------------------------------------------------------===//

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "engine/TargetModel.h"
#include "paper/Figures.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"
#include "tools/LitmusParser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jsmm;
using paper::fig8Program;
using analysis::classify;
using analysis::LintKind;
using analysis::StaticClassification;

namespace {

std::vector<LintKind> kindsOf(const StaticClassification &C) {
  std::vector<LintKind> Kinds;
  for (const analysis::LintDiag &D : C.Lints)
    Kinds.push_back(D.Kind);
  return Kinds;
}

bool hasKind(const StaticClassification &C, LintKind K) {
  const std::vector<LintKind> Kinds = kindsOf(C);
  return std::find(Kinds.begin(), Kinds.end(), K) != Kinds.end();
}

/// All-SeqCst store buffering: the canonical statically-DRF program.
Program scSb() {
  Program P(8);
  P.Name = "sc-sb";
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  T0.load(Acc::u32(4).sc());
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u32(4).sc(), 1);
  T1.load(Acc::u32(0).sc());
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// May-race relation and the certificate
//===----------------------------------------------------------------------===//

TEST(Classify, ScSbIsStaticallyDrf) {
  StaticClassification C = classify(scSb());
  EXPECT_TRUE(C.StaticallyDrf);
  EXPECT_TRUE(C.MayRaces.empty());
  EXPECT_TRUE(C.Lints.empty());
  ASSERT_EQ(C.Accesses.size(), 4u);
}

TEST(Classify, PlainMpIsNotDrf) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.store(Acc::u32(4).sc(), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(4).sc());
  T1.load(Acc::u32(0));
  StaticClassification C = classify(P);
  EXPECT_FALSE(C.StaticallyDrf);
  // Exactly the plain message pair races; the same-range SC flag pair
  // does not.
  ASSERT_EQ(C.MayRaces.size(), 1u);
  EXPECT_EQ(C.Accesses[C.MayRaces[0].A].Access.Offset, 0u);
  EXPECT_EQ(C.Accesses[C.MayRaces[0].B].Access.Offset, 0u);
}

TEST(Classify, Fig8IsStaticallyFlagged) {
  // Fig. 8 is *dynamically* race-free (the plain load only runs when the
  // guard read 1, ordering it after the SC store) but the flow-insensitive
  // certificate must not certify it: under the original model it is not
  // SC, so certifying it would make the fast path unsound there. The
  // conservative judgment flags the SC-store / plain-load pair.
  StaticClassification C = classify(fig8Program());
  EXPECT_FALSE(C.StaticallyDrf);
  ExecutionEngine E;
  EXPECT_TRUE(E.scDrf(fig8Program(), JsModel(ModelSpec::original()))
                  .DataRaceFree);
}

TEST(Classify, DifferentRangeScAtomicsMayRace) {
  // Fig. 7's mixed-size twist: overlapping SC accesses of different
  // ranges race.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u16(0).sc());
  StaticClassification C = classify(P);
  EXPECT_FALSE(C.StaticallyDrf);
  ASSERT_EQ(C.MayRaces.size(), 1u);
}

TEST(Classify, DisjointPlainAccessesAreDrf) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(4));
  EXPECT_TRUE(classify(P).StaticallyDrf);
}

TEST(Classify, SameThreadNeverRaces) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  T0.load(Acc::u16(2));
  EXPECT_TRUE(classify(P).StaticallyDrf);
}

//===----------------------------------------------------------------------===//
// Lints
//===----------------------------------------------------------------------===//

TEST(Lint, DeadStore) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1); // read below: live
  T0.store(Acc::u32(4), 2); // never read: dead
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(0));
  StaticClassification C = classify(P);
  ASSERT_EQ(C.Lints.size(), 1u);
  EXPECT_EQ(C.Lints[0].Kind, LintKind::DeadStore);
  EXPECT_EQ(C.Lints[0].Thread, 0);
  EXPECT_EQ(C.Lints[0].PreIdx, 1);
}

TEST(Lint, UncoveredRead) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  ThreadBuilder T1 = P.thread();
  T1.load(Acc::u32(0)); // covered by the store
  T1.load(Acc::u32(4)); // nothing writes bytes 4..7: always 0
  StaticClassification C = classify(P);
  ASSERT_EQ(C.Lints.size(), 1u);
  EXPECT_EQ(C.Lints[0].Kind, LintKind::UncoveredRead);
  EXPECT_EQ(C.Lints[0].Thread, 1);
  EXPECT_EQ(C.Lints[0].PreIdx, 1);
}

TEST(Lint, NonZeroInitCoversTheRead) {
  Program P(8);
  P.setInitByte(0, 4, 7);
  ThreadBuilder T0 = P.thread();
  T0.load(Acc::u32(4));
  // Covered (no uncovered-read), but the bytes are read-only: the value
  // analysis reports the read as constant instead.
  StaticClassification C = classify(P);
  ASSERT_EQ(C.Lints.size(), 1u);
  EXPECT_EQ(C.Lints[0].Kind, LintKind::ConstantRead);
  EXPECT_NE(C.Lints[0].Message.find("yields 7"), std::string::npos);
}

TEST(Lint, RmwOwnWriteDoesNotCoverItsRead) {
  // An exchange's own write cannot feed its own read: with no other
  // write, the read side always observes 0.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.exchange(Acc::u32(0), 1);
  StaticClassification C = classify(P);
  ASSERT_TRUE(hasKind(C, LintKind::UncoveredRead));
  // A second thread's write covers it.
  Program Q(8);
  ThreadBuilder U0 = Q.thread();
  U0.exchange(Acc::u32(0), 1);
  ThreadBuilder U1 = Q.thread();
  U1.exchange(Acc::u32(0), 2);
  EXPECT_FALSE(hasKind(classify(Q), LintKind::UncoveredRead));
}

TEST(Lint, DeadBranchEq) {
  // r0 comes from a u32 whose bytes can only be 0 or 1: r0 == 9 is dead.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0), 1);
  ThreadBuilder T1 = P.thread();
  Reg R = T1.load(Acc::u32(0));
  T1.ifEq(R, 9, [](ThreadBuilder &B) { B.load(Acc::u32(4)); });
  StaticClassification C = classify(P);
  ASSERT_TRUE(hasKind(C, LintKind::DeadBranch));
  for (const analysis::LintDiag &D : C.Lints)
    if (D.Kind == LintKind::DeadBranch) {
      EXPECT_EQ(D.Thread, 1);
      EXPECT_EQ(D.PreIdx, 1); // the if is the second statement
    }
}

TEST(Lint, LiveBranchNotFlagged) {
  Program P(8);
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u32(0).sc(), 1);
  ThreadBuilder T1 = P.thread();
  Reg R = T1.load(Acc::u32(0).sc());
  T1.ifEq(R, 1, [](ThreadBuilder &B) { B.store(Acc::u32(4).sc(), 1); });
  EXPECT_FALSE(hasKind(classify(P), LintKind::DeadBranch));
}

TEST(Lint, DeadBranchNe) {
  // Nothing writes the cell and init is 0: r0 is forced to 0, so
  // r0 != 0 can never hold.
  Program P(8);
  ThreadBuilder T0 = P.thread();
  Reg R = T0.load(Acc::u32(0));
  T0.ifNe(R, 0, [](ThreadBuilder &B) { B.load(Acc::u32(4)); });
  EXPECT_TRUE(hasKind(classify(P), LintKind::DeadBranch));
}

TEST(Lint, DuplicateThread) {
  Program P(8);
  for (int T = 0; T < 2; ++T) {
    ThreadBuilder B = P.thread();
    B.store(Acc::u32(0).sc(), 1);
    B.load(Acc::u32(0).sc());
  }
  StaticClassification C = classify(P);
  unsigned Dups = 0;
  for (const analysis::LintDiag &D : C.Lints)
    if (D.Kind == LintKind::DuplicateThread) {
      ++Dups;
      EXPECT_EQ(D.Thread, 1); // anchored at the first duplicate
      EXPECT_EQ(D.PreIdx, -1);
    }
  EXPECT_EQ(Dups, 1u);
  // Each load is preceded by its thread's own covering sc store, which
  // shadows init (HBC3); with every remaining writer storing 1 the loads
  // are constant-read as well.
  ASSERT_EQ(C.Lints.size(), 3u);
  EXPECT_TRUE(hasKind(C, LintKind::ConstantRead));
}

TEST(Lint, RedundantFenceOnCompiledForm) {
  // A single SC store on armv7 compiles to dmb; str; dmb — the leading
  // and trailing fences have no same-thread access on one side.
  UniProgram P(1);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::SeqCst);
  std::vector<analysis::LintDiag> L =
      analysis::fenceLints(compileUni(P, TargetArch::ArmV7));
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0].Kind, LintKind::RedundantFence);
  EXPECT_EQ(L[0].PreIdx, 0);
  EXPECT_EQ(L[1].PreIdx, 2);
}

TEST(Lint, NoRedundantFenceBetweenAccesses) {
  // x86 SC stores are mov; mfence — consecutive stores leave every fence
  // with accesses on both sides except the trailing one.
  UniProgram P(2);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::SeqCst);
  P.store(T0, 1, 1, Mode::SeqCst);
  std::vector<analysis::LintDiag> L =
      analysis::fenceLints(compileUni(P, TargetArch::X86));
  ASSERT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0].PreIdx, 3);
}

//===----------------------------------------------------------------------===//
// Source-line mapping
//===----------------------------------------------------------------------===//

TEST(Lint, DiagnosticsMapToSourceLines) {
  const char *Src = R"(name line-map
buffer 64
thread
  store u32 0 = 1
  store u32 32 = 7
thread
  r0 = load u32 0
  r1 = load u32 16
  if r0 == 9
    store u32 0 = 2
  end
)";
  std::optional<LitmusFile> File = parseLitmus(Src);
  ASSERT_TRUE(File);
  ASSERT_EQ(File->ThreadLines.size(), 2u);
  EXPECT_EQ(File->ThreadLines[0], 3u);
  EXPECT_EQ(File->ThreadLines[1], 6u);
  ASSERT_EQ(File->InstrLines.size(), 2u);
  EXPECT_EQ(File->InstrLines[0], (std::vector<unsigned>{4, 5}));
  // Pre-order: the if's line, then its body's.
  EXPECT_EQ(File->InstrLines[1], (std::vector<unsigned>{7, 8, 9, 10}));

  StaticClassification C = classify(File->P);
  std::map<LintKind, unsigned> LineOf;
  for (const analysis::LintDiag &D : C.Lints) {
    ASSERT_GE(D.PreIdx, 0);
    LineOf[D.Kind] =
        File->InstrLines[D.Thread][static_cast<unsigned>(D.PreIdx)];
  }
  EXPECT_EQ(LineOf.at(LintKind::DeadStore), 5u);
  EXPECT_EQ(LineOf.at(LintKind::UncoveredRead), 8u);
  EXPECT_EQ(LineOf.at(LintKind::DeadBranch), 9u);
}

//===----------------------------------------------------------------------===//
// SC interleaving enumerator vs the engine
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::string> strings(const std::vector<Outcome> &Outcomes) {
  std::vector<std::string> Out;
  for (const Outcome &O : Outcomes)
    Out.push_back(O.toString());
  return Out;
}

} // namespace

TEST(ScEnumeration, MatchesFullEnumerationOnDrfPrograms) {
  // On statically-DRF programs the SC interleaving table IS the model's
  // allowed set, for every JS variant — the fact the fast path rests on.
  std::vector<Program> Programs;
  Programs.push_back(scSb());
  {
    // SC MP with a guarded plain read of a privately-written byte.
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 3);
    ThreadBuilder T1 = P.thread();
    Reg R = T1.load(Acc::u32(0).sc());
    T1.ifEq(R, 3, [](ThreadBuilder &B) { B.load(Acc::u32(4)); });
    Programs.push_back(P);
  }
  {
    // RMW chain, all SC on one cell.
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.exchange(Acc::u32(0), 1);
    ThreadBuilder T1 = P.thread();
    T1.exchange(Acc::u32(0), 2);
    Programs.push_back(P);
  }
  {
    // Nonzero init observed through SC accesses.
    Program P(8);
    P.setInitByte(0, 0, 5);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(0).sc());
    Programs.push_back(P);
  }
  ExecutionEngine Full; // no fast path: the dynamic reference
  for (size_t I = 0; I < Programs.size(); ++I) {
    const Program &P = Programs[I];
    ASSERT_TRUE(classify(P).StaticallyDrf) << "program #" << I;
    std::vector<std::string> Sc = strings(analysis::enumerateScOutcomes(P));
    for (const ModelSpec &Spec :
         {ModelSpec::original(), ModelSpec::revised(),
          ModelSpec::revisedStrongTearFree()})
      EXPECT_EQ(Sc,
                Full.enumerateOutcomes(P, JsModel(Spec)).outcomeStrings())
          << "program #" << I << " under " << Spec.Name;
  }
}

TEST(ScEnumeration, SourceTableMatchesTargetModels) {
  // The service answers a statically-DRF program's target columns from
  // the source program's SC table (Thm 6.3 between SC and the JS table):
  // that table must equal each target's full walk, on all-SC store
  // buffering and on every certified corpus program in the uni-size
  // fragment.
  std::vector<UniProgram> Programs;
  {
    UniProgram P(2);
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::SeqCst);
    P.load(T0, 1, Mode::SeqCst);
    unsigned T1 = P.thread();
    P.store(T1, 1, 1, Mode::SeqCst);
    P.load(T1, 0, Mode::SeqCst);
    Programs.push_back(P);
  }
  for (const DiffCase &C : differentialCorpus())
    if (classify(C.program()).StaticallyDrf)
      if (std::optional<UniProgram> U = uniFromProgram(C.program()))
        Programs.push_back(*U);
  ASSERT_GE(Programs.size(), 3u);
  ExecutionEngine Full;
  for (size_t I = 0; I < Programs.size(); ++I) {
    Program P = mixedFromUni(Programs[I]);
    ASSERT_TRUE(classify(P).StaticallyDrf) << "program #" << I;
    std::vector<std::string> Sc = strings(analysis::enumerateScOutcomes(P));
    for (const TargetModel &M : TargetModel::all())
      EXPECT_EQ(Sc, Full.enumerateOutcomes(compileUni(Programs[I], M.arch()),
                                           M)
                        .outcomeStrings())
          << "program #" << I << " under " << M.name();
  }
}

TEST(ScEnumeration, ServiceShortcutServesDrfPrograms) {
  // A statically-DRF job is answered from the SC table, with the verdicts
  // of the full walk; a racy one is walked.
  LitmusService Service(ServiceConfig::sequential());
  auto Run = [&](const Program &P, const std::string &Model, bool Static) {
    LitmusJob Job{P.Name, emitLitmus(LitmusFile{P, {}, {}, {}}), Model};
    Job.Static = Static;
    return Service.runOne(Job);
  };
  LitmusJobResult S = Run(scSb(), "revised", true);
  EXPECT_TRUE(S.DrfFastPath);
  EXPECT_EQ(S.AllowedByBackend, Run(scSb(), "revised", false).AllowedByBackend);
  LitmusJobResult R = Run(fig8Program(), "original", true);
  EXPECT_FALSE(R.DrfFastPath);
  EXPECT_EQ(R.AllowedByBackend,
            Run(fig8Program(), "original", false).AllowedByBackend);
}
