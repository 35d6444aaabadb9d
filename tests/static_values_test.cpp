//===- tests/static_values_test.cpp - Value-aware static tier tests -------===//
///
/// \file
/// The soundness and equivalence contract of analysis::StaticValues and
/// the engine pruning it drives (EngineConfig::StaticFastPath on racy
/// programs):
///
///   - unit facts: byte classification, may-rf exclusions (E1 / E2 /
///     shadowed init), refined possible sets, constant reads, register
///     constants, and path feasibility — including the vacuous-constraint
///     case the engine's dynamic discharge rule imposes;
///   - the flat-table analysis equals the map-and-all-pairs reference in
///     TestUtil.h, field by field, over every corpus and wide programs;
///   - randomized may-rf soundness sweeps on both tiers: every rf edge of
///     every valid candidate execution lands inside the static candidate
///     sets, for the JS models (via a path-combination reconstruction)
///     and for all six Thm 6.3 target backends (the source program's
///     facts read through each event's SourceIdx);
///   - golden equivalence: verdict tables with pruning on are
///     byte-identical to pruning off, at the engine doors (both relation
///     tiers, workers 1/2/4, reduce on|off) and at the service doors
///     (small and large differential corpora) — with the pruning counters
///     pinned deterministic across worker counts and required to actually
///     fire.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "engine/MemoryModel.h"
#include "engine/TargetModel.h"
#include "litmus/PathEnum.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"
#include "targets/UniProgram.h"
#include "tools/LitmusParser.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

uint64_t leValue(const std::vector<uint8_t> &Bytes) {
  uint64_t V = 0;
  for (size_t K = 0; K < Bytes.size(); ++K)
    V |= static_cast<uint64_t>(Bytes[K]) << (8 * K);
  return V;
}

//===--------------------------------------------------------------------===//
// Unit facts
//===--------------------------------------------------------------------===//

TEST(StaticValues, ByteClassification) {
  Program P(8);
  P.setInitByte(0, 4, 9);
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(0), 1);
    T.load(Acc::u8(4)); // read-only byte with a nonzero init
  }
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(0), 2);
    T.load(Acc::u8(0));
  }
  analysis::StaticValues SV = analysis::analyzeValues(P);
  const analysis::ByteFacts &B0 = SV.Bytes.at({0u, 0u});
  EXPECT_EQ(B0.Class, analysis::ByteClass::MultiWriter);
  EXPECT_EQ(B0.Writers, 2u);
  EXPECT_TRUE(B0.Read);
  const analysis::ByteFacts &B4 = SV.Bytes.at({0u, 4u});
  EXPECT_EQ(B4.Class, analysis::ByteClass::ReadOnly);
  EXPECT_EQ(B4.Init, 9u);
  EXPECT_STREQ(analysis::byteClassName(B4.Class), "read-only");
}

TEST(StaticValues, MayRfExclusionRules) {
  // Thread 0: store 1; load; store 2.  Thread 1: store 3.
  // The load's may-rf set must drop the init write (shadowed by the
  // unconditional store of 1 — rule E2 with W = Init) and the later
  // same-thread store of 2 (rule E1), keeping the store of 1 and the
  // cross-thread store of 3.
  Program P(8);
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(0), 1);
    T.load(Acc::u8(0));
    T.store(Acc::u8(0), 2);
  }
  P.thread().store(Acc::u8(0), 3);
  analysis::StaticValues SV = analysis::analyzeValues(P);
  ASSERT_EQ(SV.Reads.size(), 1u);
  const analysis::ReadMayRf &MR = SV.Reads[0];
  ASSERT_EQ(MR.Bytes.size(), 1u);
  EXPECT_FALSE(MR.Bytes[0].Init);
  std::set<uint64_t> Values;
  for (unsigned WIdx : MR.Bytes[0].Writers)
    Values.insert(SV.C.Accesses[WIdx].Value);
  EXPECT_EQ(Values, (std::set<uint64_t>{1, 3}));
  EXPECT_EQ(MR.Possible[0], (std::set<uint8_t>{1, 3}));
  EXPECT_FALSE(MR.Constant);
  // Exactly two exclusions: the shadowed init and the E1 store of 2. The
  // cross-thread write must survive.
  EXPECT_EQ(SV.MayRfExcluded, 2u);
}

TEST(StaticValues, ConditionalWriteDoesNotShadow) {
  // A covering write inside a branch (depth > 0) is conditional: it must
  // not shadow the init write (rule E2 requires an unconditional write).
  Program P(8);
  {
    ThreadBuilder T = P.thread();
    Reg R = T.load(Acc::u8(4));
    T.ifEq(R, 0, [](ThreadBuilder &B) { B.store(Acc::u8(0), 1); });
    T.load(Acc::u8(0));
  }
  analysis::StaticValues SV = analysis::analyzeValues(P);
  ASSERT_EQ(SV.Reads.size(), 2u);
  const analysis::ReadMayRf &MR = SV.Reads[1];
  ASSERT_EQ(MR.Bytes.size(), 1u);
  EXPECT_TRUE(MR.Bytes[0].Init);
  EXPECT_EQ(MR.Possible[0], (std::set<uint8_t>{0, 1}));
}

TEST(StaticValues, ConstantReadsAndRegisterConstants) {
  Program P(8);
  unsigned Thread = 0;
  {
    ThreadBuilder T = P.thread();
    Thread = T.thread();
    T.store(Acc::u32(0), 5);
    T.load(Acc::u32(0)); // only writer + shadowed init: constant 5
  }
  analysis::StaticValues SV = analysis::analyzeValues(P);
  ASSERT_EQ(SV.Reads.size(), 1u);
  const analysis::ReadMayRf &MR = SV.Reads[0];
  EXPECT_TRUE(MR.Constant);
  EXPECT_EQ(MR.ConstantValue, 5u);
  const analysis::AccessRecord &R = SV.C.Accesses[MR.AccessIdx];
  ASSERT_TRUE(SV.RegConstants.count({Thread, R.Dst}));
  EXPECT_EQ(SV.RegConstants.at({Thread, R.Dst}), 5u);
  // The constant read is linted (no uncovered-read root cause here).
  bool Found = false;
  for (const analysis::LintDiag &D : SV.C.Lints)
    Found = Found || D.Kind == analysis::LintKind::ConstantRead;
  EXPECT_TRUE(Found);
}

TEST(StaticValues, PathFeasibility) {
  // r0 is the constant 5, so the path taking `if r0 == 0` is statically
  // infeasible and the path skipping it is feasible.
  Program P(8);
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(0), 5);
    Reg R0 = T.load(Acc::u8(0));
    T.ifEq(R0, 0, [](ThreadBuilder &B) { B.store(Acc::u8(4), 1); });
  }
  analysis::StaticValues SV = analysis::analyzeValues(P);
  std::vector<ThreadPath> Paths = enumeratePaths(P.threadBody(0));
  ASSERT_EQ(Paths.size(), 2u);
  for (const ThreadPath &Path : Paths)
    EXPECT_EQ(SV.pathFeasible(Path), Path.Accesses.size() == 2u);
}

TEST(StaticValues, UnassignedBranchRegisterIsDecidedAtUnfolding) {
  // A branch on a register whose assigning read sits inside a *skipped*
  // branch reads the register as 0. enumeratePaths decides such a branch
  // while unfolding: only the side 0 satisfies survives, unconstrained,
  // so pathFeasible never sees a constraint without an on-path read.
  Program P(8);
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(0), 5);
    Reg R0 = T.load(Acc::u8(0)); // constant 5
    Reg Inner = R0;
    T.ifEq(R0, 0, [&](ThreadBuilder &B) {
      Inner = B.load(Acc::u8(0)); // constant 5, only on the taken path
    });
    T.ifEq(Inner, 7, [](ThreadBuilder &B) { B.store(Acc::u8(4), 1); });
  }
  analysis::StaticValues SV = analysis::analyzeValues(P);
  std::vector<ThreadPath> Paths = enumeratePaths(P.threadBody(0));
  ASSERT_EQ(Paths.size(), 3u);
  for (const ThreadPath &Path : Paths) {
    // Paths through the first branch carry two loads and are infeasible
    // (r0 is the constant 5, never 0). The path skipping it carries one
    // load and skips `if Inner == 7` (Inner reads as 0) with no
    // constraint, so it stays feasible.
    unsigned Loads = 0;
    for (const Instr *I : Path.Accesses)
      Loads += I->K == Instr::Kind::Load;
    EXPECT_EQ(SV.pathFeasible(Path), Loads == 1u)
        << "path with " << Path.Accesses.size() << " accesses";
  }
}

TEST(StaticValues, UnassignedBranchRegisterTablesAgree) {
  // T1 branches on r1, which only the taken side of `if r0 == 1` assigns.
  // Where r0 != 1, r1 reads as 0, so the store to 8 must run and r2 = 0 is
  // impossible. The full walk once let that path run unconstrained and
  // allowed 1:r0=0 1:r2=0, which the static fast path (and SC) forbid.
  const std::string Src = "name unassigned-branch\n"
                          "buffer 12\n"
                          "thread\n"
                          "  store.sc u32 0 = 1\n"
                          "thread\n"
                          "  r0 = load.sc u32 0\n"
                          "  if r0 == 1\n"
                          "    r1 = load.sc u32 4\n"
                          "  end\n"
                          "  if r1 == 0\n"
                          "    store.sc u32 8 = 1\n"
                          "  end\n"
                          "  r2 = load.sc u32 8\n";
  std::optional<LitmusFile> File = parseLitmus(Src);
  ASSERT_TRUE(File.has_value());
  const std::vector<std::string> Expected = {"1:r0=0 1:r2=1",
                                             "1:r0=1 1:r1=0 1:r2=1"};
  for (ModelSpec Spec : {ModelSpec::original(), ModelSpec::revised()}) {
    EXPECT_EQ(ExecutionEngine(EngineConfig::seedCompatible())
                  .enumerateOutcomes(File->P,
                                     JsModel(Spec, SolverConfig::brute()))
                  .outcomeStrings(),
              Expected);
    for (bool Static : {false, true})
      for (bool Reduce : {false, true}) {
        EngineConfig Cfg;
        Cfg.StaticFastPath = Static;
        Cfg.Reduction = Reduce;
        EXPECT_EQ(ExecutionEngine(Cfg)
                      .enumerateOutcomes(File->P, JsModel(Spec))
                      .outcomeStrings(),
                  Expected)
            << "static=" << Static << " reduce=" << Reduce;
      }
  }
  EXPECT_EQ(ExecutionEngine()
                .enumerate(compileToArm(File->P).Arm, Armv8Model())
                .outcomeStrings(),
            Expected);
  for (bool Static : {false, true})
    for (bool Reduce : {false, true}) {
      LitmusJob J;
      J.Litmus = Src;
      J.Model = "differential";
      J.Static = Static;
      J.Reduce = Reduce;
      LitmusJobResult R = LitmusService(ServiceConfig{1, false}).run({J})[0];
      ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
      for (const char *Column : {"js-original", "js-revised", "armv8"})
        EXPECT_EQ(R.AllowedByBackend[Column], Expected)
            << Column << " static=" << Static << " reduce=" << Reduce;
    }
}

//===--------------------------------------------------------------------===//
// The flat analysis against the map-and-all-pairs reference
//===--------------------------------------------------------------------===//

/// A wide program: a racy core (a SeqCst pair on one range, SeqCst pairs
/// on different ranges, an RMW, a conditional read, a second buffer),
/// then \p Groups groups of filler threads storing three u32 cells each.
/// A group is one of: a lone filler followed by a gap, an exact duplicate
/// pair, a trio
/// whose members store the same values into their own cells (duplicates
/// up to offset renaming), or a pair on the second buffer whose second
/// member reuses the first's cells at a shifted offset.
Program wideProgram(std::mt19937 &Rng, unsigned Groups, bool NonZeroInit) {
  auto Dist = [&](unsigned Lo, unsigned Hi) {
    return std::uniform_int_distribution<unsigned>(Lo, Hi)(Rng);
  };
  Program P(16 + 36 * Groups);
  unsigned B1 = P.addBuffer(256);
  if (NonZeroInit) {
    P.setInitByte(0, 2, 7);
    P.setInitByte(B1, 5, 1);
  }
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u32(0), 1);
    T.store(Acc::u32(4).sc(), 1);
    T.exchange(Acc::u32(8), 2);
    T.store(Acc::u8(0).block(B1), 5);
  }
  {
    ThreadBuilder T = P.thread();
    Reg R = T.load(Acc::u32(4).sc());
    T.ifEq(R, 1, [](ThreadBuilder &B) { B.load(Acc::u32(0)); });
    T.load(Acc::u32(8).sc());   // SeqCst pair on the exchange's range
    T.load(Acc::u16(10).sc());  // SeqCst pair on a different range
    T.exchange(Acc::u16(4), 3); // overlaps the SeqCst flag store
    T.load(Acc::u32(0).block(B1));
  }
  unsigned Next = 16, Next1 = 8; // the next free cell of each buffer
  auto Filler = [&](unsigned Block, unsigned Base, uint64_t Value) {
    ThreadBuilder T = P.thread();
    for (unsigned L = 0; L < 3; ++L)
      T.store(Acc::u32(Base + 4 * L).block(Block), Value + L);
  };
  for (unsigned G = 0; G < Groups; ++G) {
    uint64_t Value = 1 + 3 * Dist(0, 4);
    switch (Dist(0, 3)) {
    case 0: // leaves an untouched gap after its cells
      Filler(0, Next, Value);
      Next += 16;
      break;
    case 1:
      Filler(0, Next, Value);
      Filler(0, Next, Value);
      Next += 12;
      break;
    case 2:
      for (unsigned M = 0; M < 3; ++M, Next += 12)
        Filler(0, Next, Value);
      break;
    case 3:
      if (Next1 + 16 > 256)
        break;
      Filler(B1, Next1, Value);
      Filler(B1, Next1 + 4, Value);
      Next1 += 16;
      break;
    }
  }
  return P;
}

/// The first field in which the flat analysis of \p P differs from the
/// reference, or "" when every field agrees. \p RenamedClasses counts the
/// reference's non-exact symmetry classes.
std::string flatAnalysisMismatch(const Program &P, unsigned &RenamedClasses) {
  analysis::StaticValues SV = analysis::analyzeValues(P);
  ReferenceAnalysis Ref = referenceAnalyzeValues(P);
  const analysis::StaticClassification &C = SV.C, &RC = Ref.C;
  if (C.MayRaces.size() != RC.MayRaces.size())
    return "may-race count";
  for (size_t I = 0; I < C.MayRaces.size(); ++I)
    if (C.MayRaces[I].A != RC.MayRaces[I].A ||
        C.MayRaces[I].B != RC.MayRaces[I].B)
      return "may-race " + std::to_string(I);
  if (C.StaticallyDrf != RC.StaticallyDrf)
    return "statically-drf";
  if (C.Lints.size() != RC.Lints.size())
    return "lint count";
  for (size_t I = 0; I < C.Lints.size(); ++I)
    if (C.Lints[I].Kind != RC.Lints[I].Kind ||
        C.Lints[I].Thread != RC.Lints[I].Thread ||
        C.Lints[I].PreIdx != RC.Lints[I].PreIdx ||
        C.Lints[I].Message != RC.Lints[I].Message)
      return "lint " + std::to_string(I);
  if (SV.Bytes.size() != Ref.Bytes.size())
    return "touched byte count";
  for (const auto &[Key, F] : Ref.Bytes) {
    std::string Where =
        "byte " + std::to_string(Key.first) + ":" + std::to_string(Key.second);
    analysis::ByteFacts G;
    try {
      G = SV.Bytes.at(Key);
    } catch (const std::out_of_range &) {
      return Where + " missing";
    }
    if (G.Class != F.Class || G.Init != F.Init || G.Writers != F.Writers ||
        G.Read != F.Read)
      return Where;
  }
  if (SV.Reads.size() != Ref.Reads.size())
    return "read count";
  for (size_t I = 0; I < SV.Reads.size(); ++I) {
    const analysis::ReadMayRf &X = SV.Reads[I], &Y = Ref.Reads[I];
    bool Same = X.AccessIdx == Y.AccessIdx && X.Possible == Y.Possible &&
                X.Constant == Y.Constant &&
                X.ConstantValue == Y.ConstantValue &&
                X.Bytes.size() == Y.Bytes.size();
    for (size_t K = 0; Same && K < X.Bytes.size(); ++K)
      Same = X.Bytes[K].Init == Y.Bytes[K].Init &&
             X.Bytes[K].Writers == Y.Bytes[K].Writers;
    if (!Same)
      return "read " + std::to_string(I);
  }
  if (SV.RegConstants != Ref.RegConstants)
    return "register constants";
  if (SV.MayRfExcluded != Ref.MayRfExcluded)
    return "may-rf exclusions";
  ThreadSymmetry Sym = threadSymmetry(P);
  if (Sym.Classes != Ref.Symmetry.Classes || Sym.Exact != Ref.Symmetry.Exact)
    return "symmetry classes";
  for (char Exact : Ref.Symmetry.Exact)
    RenamedClasses += Exact ? 0 : 1;
  return "";
}

TEST(StaticValues, FlatAnalysisEqualsReference) {
  // Every output of the flat-table analysis (byte table, may-race sweep,
  // signature-bucketed symmetry) equals the map-and-all-pairs reference
  // in TestUtil.h, field by field, on every corpus the service runs plus
  // random small programs and wide programs built to exercise the sweep
  // and the symmetry buckets.
  std::vector<std::pair<std::string, Program>> Programs;
  std::vector<LitmusJob> Jobs = differentialCorpusJobs();
  for (const LitmusJob &J : largeCorpusJobs())
    Jobs.push_back(J);
  for (const LitmusJob &J : Jobs) {
    std::optional<LitmusFile> File = parseLitmus(J.Litmus);
    ASSERT_TRUE(File.has_value()) << J.Name;
    Programs.emplace_back(J.Name, File->P);
  }
  std::filesystem::path Dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "litmus";
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    if (Entry.path().extension() != ".litmus")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Text;
    Text << In.rdbuf();
    std::optional<LitmusFile> File = parseLitmus(Text.str());
    ASSERT_TRUE(File.has_value()) << Entry.path();
    Programs.emplace_back(Entry.path().filename().string(), File->P);
  }
  std::mt19937 Rng(0xF1A7);
  for (unsigned I = 0; I < 300; ++I)
    Programs.emplace_back("gen-" + std::to_string(I),
                          randomSmallProgram(Rng));
  for (unsigned I = 0; I < 24; ++I)
    Programs.emplace_back("wide-" + std::to_string(I),
                          wideProgram(Rng, 4 + 3 * I, I % 3 == 2));

  unsigned RenamedClasses = 0, RacyPrograms = 0;
  for (const auto &[Name, P] : Programs) {
    EXPECT_EQ(flatAnalysisMismatch(P, RenamedClasses), "") << Name;
    RacyPrograms += analysis::classify(P).StaticallyDrf ? 0 : 1;
  }
  // The inputs exercise what the rewrite changed.
  EXPECT_GT(RenamedClasses, 0u);
  EXPECT_GT(RacyPrograms, 0u);
}

//===--------------------------------------------------------------------===//
// Randomized may-rf soundness sweeps
//===--------------------------------------------------------------------===//

/// True when instruction \p I could have produced event \p E (same
/// access shape and, for writes, the same written bytes).
bool instrMatchesEvent(const Instr &I, const Event &E) {
  if (I.K == Instr::Kind::IfEq || I.K == Instr::Kind::IfNe)
    return false;
  const Acc &A = I.Access;
  if (A.Block != E.Block || A.Offset != E.Index || A.Ord != E.Ord)
    return false;
  bool Reads = I.K != Instr::Kind::Store;
  bool Writes = I.K != Instr::Kind::Load;
  if (Reads != E.isRead() || Writes != E.isWrite())
    return false;
  if (Reads && E.ReadBytes.size() != A.Width)
    return false;
  if (Writes) {
    if (E.WriteBytes.size() != A.Width)
      return false;
    for (unsigned K = 0; K < A.Width; ++K)
      if (E.WriteBytes[K] != static_cast<uint8_t>(I.Value >> (8 * K)))
        return false;
  }
  return true;
}

/// True when path \p Q could have produced the per-thread event sequence
/// \p Evs: every access matches and every read's observed value satisfies
/// the path's constraints on its destination register (the engine's
/// dynamic discharge rule).
bool pathMatchesEvents(const ThreadPath &Q,
                       const std::vector<const Event *> &Evs) {
  if (Q.Accesses.size() != Evs.size())
    return false;
  for (size_t J = 0; J < Evs.size(); ++J) {
    const Instr &I = *Q.Accesses[J];
    if (!instrMatchesEvent(I, *Evs[J]))
      return false;
    if (I.K != Instr::Kind::Store &&
        !constraintsAllow(Q, I.Dst, leValue(Evs[J]->ReadBytes)))
      return false;
  }
  return true;
}

/// True when, under the per-thread path choice \p Combo, every rbf edge
/// of \p CE lands inside the static may-rf candidate sets. \p PosOf maps
/// an event id to its (thread, position-within-thread), or (-1, -1) for
/// Init events.
bool comboCoversRbf(const analysis::StaticValues &SV,
                    const CandidateExecution &CE,
                    const std::vector<const ThreadPath *> &Combo,
                    const std::vector<std::pair<int, int>> &PosOf) {
  for (const RbfEdge &Edge : CE.Rbf) {
    const Event &R = CE.Events[Edge.Reader];
    auto [RT, RPos] = PosOf[Edge.Reader];
    int RAcc = SV.accessOf(
        Combo[static_cast<size_t>(RT)]->Accesses[static_cast<size_t>(RPos)]);
    if (RAcc < 0)
      return false;
    const analysis::ReadMayRf *MR =
        SV.readMayRf(static_cast<unsigned>(RAcc));
    if (!MR)
      return false;
    const analysis::MayRfByte &MB = MR->Bytes[Edge.Loc - R.readBegin()];
    const Event &W = CE.Events[Edge.Writer];
    if (W.Thread < 0) {
      if (!MB.Init)
        return false;
      continue;
    }
    auto [WT, WPos] = PosOf[Edge.Writer];
    int WAcc = SV.accessOf(
        Combo[static_cast<size_t>(WT)]->Accesses[static_cast<size_t>(WPos)]);
    if (WAcc < 0 || !std::binary_search(MB.Writers.begin(), MB.Writers.end(),
                                        static_cast<unsigned>(WAcc)))
      return false;
  }
  return true;
}

/// True when some path combination consistent with \p CE's events covers
/// all of its rbf edges — the no-candidate-loss property the engine's
/// static writer skip relies on.
bool someComboCovers(const analysis::StaticValues &SV,
                     const std::vector<std::vector<ThreadPath>> &Paths,
                     const CandidateExecution &CE) {
  unsigned NumThreads = static_cast<unsigned>(Paths.size());
  std::vector<std::vector<const Event *>> ByThread(NumThreads);
  std::vector<std::pair<int, int>> PosOf(CE.Events.size(), {-1, -1});
  for (const Event &E : CE.Events) {
    if (E.Thread < 0)
      continue;
    unsigned T = static_cast<unsigned>(E.Thread);
    PosOf[E.Id] = {E.Thread, static_cast<int>(ByThread[T].size())};
    ByThread[T].push_back(&E);
  }
  std::vector<std::vector<const ThreadPath *>> Candidates(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    for (const ThreadPath &Q : Paths[T])
      if (pathMatchesEvents(Q, ByThread[T]))
        Candidates[T].push_back(&Q);
    if (Candidates[T].empty())
      return false; // no path explains this thread's events at all
  }
  std::vector<const ThreadPath *> Combo(NumThreads, nullptr);
  std::function<bool(unsigned)> Search = [&](unsigned T) {
    if (T == NumThreads)
      return comboCoversRbf(SV, CE, Combo, PosOf);
    for (const ThreadPath *Q : Candidates[T]) {
      Combo[T] = Q;
      if (Search(T + 1))
        return true;
    }
    return false;
  };
  return Search(0);
}

TEST(StaticValues, JsSweepMayRfCoversEveryValidCandidate) {
  // 300 seeded random small programs: every candidate execution some JS
  // model admits must be explainable by a path combination whose rf
  // edges all sit inside the static may-rf sets — otherwise the pruned
  // walk could lose it. One admission-pruned walk per model covers every
  // valid candidate of that model (admission is monotone: it never drops
  // a candidate with a valid completion) at a fraction of the unpruned
  // space's cost. The programs are drawn before the check, whose
  // (program, model) walks run on one thread per core; failures are
  // reported here in program order.
  std::mt19937 Rng(0x5AFE01);
  std::vector<Program> Programs;
  for (int I = 0; I < 300; ++I)
    Programs.push_back(randomSmallProgram(Rng));
  const JsModel Models[] = {JsModel(ModelSpec::revised()),
                            JsModel(ModelSpec::original())};
  constexpr size_t NumModels = std::size(Models);

  struct Walk {
    uint64_t Valid = 0;
    std::vector<std::string> Failures;
  };
  std::vector<Walk> Walks(Programs.size() * NumModels);
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    ExecutionEngine E;
    for (size_t W = Next++; W < Walks.size(); W = Next++) {
      const Program &P = Programs[W / NumModels];
      const JsModel &M = Models[W % NumModels];
      Walk &Out = Walks[W];
      try {
        analysis::StaticValues SV = analysis::analyzeValues(P);
        std::vector<std::vector<ThreadPath>> Paths;
        for (unsigned T = 0; T < P.numThreads(); ++T)
          Paths.push_back(enumeratePaths(P.threadBody(T)));
        E.forEachAdmittedCandidate(
            P, M,
            [&](const CandidateExecution &CE, const DerivedTriple &D,
                const Outcome &O) {
              (void)O;
              if (!M.allows(CE, D))
                return true;
              ++Out.Valid;
              if (!someComboCovers(SV, Paths, CE))
                Out.Failures.push_back("a valid candidate has an rf edge "
                                       "outside the static may-rf sets");
              return true;
            });
      } catch (const std::exception &Ex) {
        Out.Failures.push_back(std::string("exception: ") + Ex.what());
      }
    }
  };
  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  {
    std::vector<std::jthread> Pool; // joined when the scope ends
    for (unsigned T = 0; T < Threads; ++T)
      Pool.emplace_back(Worker);
  }

  uint64_t ValidCandidates = 0;
  for (size_t W = 0; W < Walks.size(); ++W) {
    ValidCandidates += Walks[W].Valid;
    for (const std::string &F : Walks[W].Failures)
      ADD_FAILURE() << "program #" << W / NumModels << " under "
                    << Models[W % NumModels].name() << ": " << F;
  }
  // The sweep must actually exercise the property.
  EXPECT_GE(ValidCandidates, 1000u);
}

/// A random straight-line program inside the §6.3 uni fragment: 2-3
/// threads over two u32 cells, stores/loads/exchanges with values 0-2,
/// some SeqCst.
Program randomUniFragmentProgram(std::mt19937 &Rng) {
  auto Dist = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  Program P(8);
  int NumThreads = Dist(2, 3);
  for (int T = 0; T < NumThreads; ++T) {
    ThreadBuilder B = P.thread();
    int N = Dist(1, 3);
    for (int I = 0; I < N; ++I) {
      Acc A = Acc::u32(4u * static_cast<unsigned>(Dist(0, 1)));
      if (Dist(0, 3) == 0)
        A = A.sc();
      switch (Dist(0, 5)) {
      case 0:
      case 1:
      case 2:
        B.store(A, static_cast<uint64_t>(Dist(0, 2)));
        break;
      case 5:
        B.exchange(A, static_cast<uint64_t>(Dist(0, 2)));
        break;
      default:
        B.load(A);
        break;
      }
    }
  }
  return P;
}

TEST(StaticValues, TargetSweepMayRfCoversEveryConsistentCandidate) {
  // Random uni-fragment programs under all six Thm 6.3 backends: every
  // consistent target execution's rf edges must sit inside the may-rf
  // sets of the *source* program's analysis, read through each event's
  // SourceIdx (the mapping the engine's target door uses).
  std::mt19937 Rng(0x5AFE02);
  ExecutionEngine E;
  uint64_t Consistent = 0;
  for (int I = 0; I < 60; ++I) {
    Program P = randomUniFragmentProgram(Rng);
    std::optional<UniProgram> Uni = uniFromProgram(P);
    ASSERT_TRUE(Uni) << "generator left the uni fragment, program #" << I;
    analysis::StaticValues SV = analysis::analyzeValues(P);
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(*Uni, M.arch());
      E.forEachTargetCandidate(
          CT, [&](const TargetExecution &X, const Outcome &O) {
            (void)O;
            if (!M.allows(X))
              return true;
            ++Consistent;
            X.Rf.forEachPair([&](unsigned W, unsigned R) {
              const analysis::ReadMayRf *MR = SV.readMayRf(
                  static_cast<unsigned>(X.Events[R].SourceIdx));
              ASSERT_NE(MR, nullptr);
              const analysis::MayRfByte &MB = MR->Bytes[0];
              if (X.Events[W].IsInit) {
                EXPECT_TRUE(MB.Init)
                    << M.name() << " program #" << I << ": rf from a "
                    << "statically shadowed init write";
                return;
              }
              EXPECT_TRUE(std::binary_search(
                  MB.Writers.begin(), MB.Writers.end(),
                  static_cast<unsigned>(X.Events[W].SourceIdx)))
                  << M.name() << " program #" << I
                  << ": rf edge outside the static may-rf set";
            });
            return true;
          });
    }
  }
  EXPECT_GE(Consistent, 1000u);
}

//===--------------------------------------------------------------------===//
// Golden equivalence: pruning on == pruning off
//===--------------------------------------------------------------------===//

/// An SB core on bytes 0/4 (genuinely racy: the DRF certificate fails and
/// the full walk runs) plus per-thread private counters whose reads are
/// statically constant — their init writers are shadowed and a later
/// same-thread store is E1-excluded (rf pruning), and the branches they
/// feed are statically infeasible (path-combination pruning).
Program prunableProgram() {
  Program P(16);
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(0), 1);
    T.store(Acc::u8(8), 7);
    Reg R = T.load(Acc::u8(8)); // constant 7: init shadowed
    T.store(Acc::u8(8), 3);     // E1-excluded for the load above
    T.ifEq(R, 0, [](ThreadBuilder &B) { B.load(Acc::u8(4)); }); // dead
    T.load(Acc::u8(4));
  }
  {
    ThreadBuilder T = P.thread();
    T.store(Acc::u8(4), 1);
    T.store(Acc::u8(9), 5);
    Reg R = T.load(Acc::u8(9)); // constant 5: init shadowed
    T.ifEq(R, 0, [](ThreadBuilder &B) { B.load(Acc::u8(0)); }); // dead
    T.load(Acc::u8(0));
  }
  return P;
}

/// The mixed-size rendering of sb-wide-126 from the large differential
/// corpus: 65 events, so its relations have rows of two words.
Program largeSbProgram() {
  for (const DiffCase &C : largeDifferentialCorpus())
    if (C.Name == "sb-wide-126")
      return mixedFromUni(C.Uni);
  ADD_FAILURE() << "sb-wide-126 missing from the large corpus";
  return Program(4);
}

TEST(StaticValues, EnginePruningPreservesTablesAcrossWorkersAndTiers) {
  // Engine-door equivalence on the JS side: pruning on vs off across
  // workers 1/2/4 and reduce on|off, with the pruning counters
  // deterministic across worker counts and actually firing on the
  // prunable program family. One 65-event program covers rows of several
  // words.
  std::mt19937 Rng(0x5AFE03);
  std::vector<Program> Corpus;
  Corpus.push_back(prunableProgram());
  Corpus.push_back(largeSbProgram());
  for (int I = 0; I < 20; ++I)
    Corpus.push_back(randomSmallProgram(Rng));
  uint64_t TotalRfPruned = 0, TotalPathsPruned = 0;
  for (size_t PI = 0; PI < Corpus.size(); ++PI) {
    const Program &P = Corpus[PI];
    for (bool Reduce : {false, true}) {
      for (const ModelSpec &Spec :
           {ModelSpec::original(), ModelSpec::revised()}) {
        JsModel M(Spec);
        EngineConfig Off;
        Off.Reduction = Reduce;
        std::vector<std::string> Want =
            ExecutionEngine(Off).enumerateOutcomes(P, M).outcomeStrings();
        std::optional<uint64_t> RfPruned, PathsPruned;
        for (unsigned Workers : {1u, 2u, 4u}) {
          EngineConfig On = Off;
          On.Threads = Workers;
          On.StaticFastPath = true;
          ExecutionEngine E(On);
          EXPECT_EQ(E.enumerateOutcomes(P, M).outcomeStrings(), Want)
              << "program #" << PI << " " << Spec.Name
              << " reduce=" << Reduce << " workers=" << Workers;
          if (!RfPruned) {
            RfPruned = E.Stats.StaticRfPruned;
            PathsPruned = E.Stats.StaticPathsPruned;
            TotalRfPruned += *RfPruned;
            TotalPathsPruned += *PathsPruned;
          } else {
            EXPECT_EQ(E.Stats.StaticRfPruned, *RfPruned)
                << "program #" << PI << " workers=" << Workers;
            EXPECT_EQ(E.Stats.StaticPathsPruned, *PathsPruned)
                << "program #" << PI << " workers=" << Workers;
          }
        }
      }
    }
  }
  EXPECT_GT(TotalRfPruned, 0u);
  EXPECT_GT(TotalPathsPruned, 0u);
}

TEST(StaticValues, TargetPruningPreservesTablesAcrossWorkersAndTiers) {
  // Target-door equivalence: the walk pruned by the source program's
  // analysis against the unpruned walk, across workers 1/2/4 and reduce
  // on|off. The last program (65 events, compiled forms of more) covers
  // rows of several words.
  std::mt19937 Rng(0x5AFE04);
  uint64_t TotalRfPruned = 0;
  for (int I = 0; I <= 15; ++I) {
    Program P = I < 15 ? randomUniFragmentProgram(Rng) : largeSbProgram();
    std::optional<UniProgram> Uni = uniFromProgram(P);
    ASSERT_TRUE(Uni);
    analysis::StaticValues SV = analysis::analyzeValues(P);
    for (const TargetModel &M : TargetModel::all()) {
      CompiledTarget CT = compileUni(*Uni, M.arch());
      for (bool Reduce : {false, true}) {
        EngineConfig Off;
        Off.Reduction = Reduce;
        std::vector<std::string> Want =
            ExecutionEngine(Off).enumerateOutcomes(CT, M).outcomeStrings();
        std::optional<uint64_t> RfPruned;
        for (unsigned Workers : {1u, 2u, 4u}) {
          EngineConfig On = Off;
          On.Threads = Workers;
          On.StaticFastPath = true;
          ExecutionEngine E(On);
          EXPECT_EQ(E.enumerateOutcomes(CT, M, &SV).outcomeStrings(), Want)
              << M.name() << " program #" << I << " reduce=" << Reduce
              << " workers=" << Workers;
          if (!RfPruned) {
            RfPruned = E.Stats.StaticRfPruned;
            TotalRfPruned += *RfPruned;
          } else {
            EXPECT_EQ(E.Stats.StaticRfPruned, *RfPruned)
                << M.name() << " program #" << I << " workers=" << Workers;
          }
        }
      }
    }
  }
  EXPECT_GT(TotalRfPruned, 0u);
}

TEST(StaticValues, TargetDoorReadsOnlyTheSourceAnalysis) {
  // A compiled form is never analysed on its own: without the source
  // program's analysis the target door walks without the static tier,
  // and an analysis of a different program is refused.
  UniProgram U(2);
  unsigned T0 = U.thread();
  U.store(T0, 0, 1, Mode::SeqCst);
  U.load(T0, 1, Mode::SeqCst);
  unsigned T1 = U.thread();
  U.store(T1, 1, 1, Mode::SeqCst);
  U.load(T1, 0, Mode::SeqCst);
  Program P = mixedFromUni(U);
  analysis::StaticValues SV = analysis::analyzeValues(P);
  ASSERT_TRUE(SV.C.StaticallyDrf);
  EngineConfig Cfg;
  Cfg.StaticFastPath = true;
  ExecutionEngine E(Cfg);
  for (const TargetModel &M : TargetModel::all()) {
    CompiledTarget CT = compileUni(U, M.arch());
    OutcomeSummary With = E.enumerateOutcomes(CT, M, &SV);
    OutcomeSummary Without = E.enumerateOutcomes(CT, M);
    EXPECT_EQ(Without.outcomeStrings(), With.outcomeStrings()) << M.name();
    analysis::StaticValues Other = analysis::analyzeValues(prunableProgram());
    EXPECT_THROW(E.enumerateOutcomes(CT, M, &Other), std::invalid_argument)
        << M.name();
  }
}

TEST(StaticValues, ServiceCorpusTablesIdenticalWithPruningOnAndOff) {
  // Service-door equivalence over the small and large differential
  // corpora: per-job verdict tables with Static on must be byte-identical
  // to Static off, across workers 1/4 and reduce on|off — and the
  // pruning counters must be deterministic across worker counts and
  // nonzero somewhere (the corpora contain racy, prunable programs) —
  // for the differential tables and for single-model JavaScript and
  // target jobs alike. Verdict caching is off so per-job counters never
  // depend on scheduling-sensitive cache hits.
  std::vector<LitmusJob> Base = differentialCorpusJobs();
  for (const LitmusJob &J : largeCorpusJobs())
    Base.push_back(J);
  for (const char *Model : {"revised", "x86-tso"})
    for (const LitmusJob &J : differentialCorpusJobs(Model))
      Base.push_back(J);
  for (bool Reduce : {false, true}) {
    std::vector<LitmusJob> OffJobs = Base, OnJobs = Base;
    for (LitmusJob &J : OffJobs) {
      J.Reduce = Reduce;
      J.Static = false;
    }
    for (LitmusJob &J : OnJobs)
      J.Reduce = Reduce;
    LitmusService OffSvc(ServiceConfig{1, false});
    std::vector<LitmusJobResult> Ref = OffSvc.run(OffJobs);
    std::optional<std::vector<LitmusJobResult>> FirstOn;
    for (unsigned Workers : {1u, 4u}) {
      LitmusService Svc(ServiceConfig{Workers, false});
      std::vector<LitmusJobResult> Got = Svc.run(OnJobs);
      ASSERT_EQ(Got.size(), Ref.size());
      uint64_t RfPruned = 0, SingleModelRfPruned = 0;
      for (size_t I = 0; I < Got.size(); ++I) {
        std::string Where = "job " + Got[I].Name +
                            " reduce=" + (Reduce ? "on" : "off") +
                            " workers=" + std::to_string(Workers);
        EXPECT_EQ(Got[I].Status, Ref[I].Status) << Where;
        EXPECT_EQ(Got[I].AllowedByBackend, Ref[I].AllowedByBackend) << Where;
        EXPECT_EQ(Got[I].SoundnessViolations, Ref[I].SoundnessViolations)
            << Where;
        EXPECT_EQ(Got[I].ObservableWeakenings, Ref[I].ObservableWeakenings)
            << Where;
        EXPECT_EQ(Ref[I].StaticRfPruned, 0u) << Where; // off: no pruning
        RfPruned += Got[I].StaticRfPruned;
        if (Got[I].Model != "differential")
          SingleModelRfPruned += Got[I].StaticRfPruned;
        if (FirstOn) {
          EXPECT_EQ(Got[I].StaticRfPruned, (*FirstOn)[I].StaticRfPruned)
              << Where;
          EXPECT_EQ(Got[I].StaticPathsPruned,
                    (*FirstOn)[I].StaticPathsPruned)
              << Where;
        }
      }
      EXPECT_GT(RfPruned, 0u) << "pruning never fired on the corpus";
      EXPECT_GT(SingleModelRfPruned, 0u)
          << "single-model jobs never reported pruning";
      if (!FirstOn)
        FirstOn = std::move(Got);
    }
  }
}

TEST(StaticValues, SingleModelServiceJobsReportTheEnginePruning) {
  // A single-model job reports exactly the pruning effort of its one
  // engine enumeration, like each column of a differential table does.
  const char *Src = "name fig6-shape\n"
                    "buffer 8\n"
                    "thread\n"
                    "  store.sc u32 0 = 1\n"
                    "  r0 = load.sc u32 4\n"
                    "thread\n"
                    "  store.sc u32 4 = 1\n"
                    "  store.sc u32 4 = 2\n"
                    "  store u32 0 = 2\n"
                    "  r0 = load.sc u32 0\n";
  std::optional<LitmusFile> File = parseLitmus(Src);
  ASSERT_TRUE(File.has_value());
  EngineConfig Cfg;
  Cfg.Reduction = true;
  Cfg.StaticFastPath = true;
  ExecutionEngine Engine(Cfg);
  Engine.enumerateOutcomes(File->P, JsModel(ModelSpec::revised()));
  EXPECT_GT(Engine.Stats.StaticRfPruned, 0u);

  LitmusJob J;
  J.Litmus = Src;
  J.Model = "revised";
  LitmusJobResult R = LitmusService(ServiceConfig{1, false}).runOne(J);
  ASSERT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.StaticRfPruned, Engine.Stats.StaticRfPruned);
  EXPECT_EQ(R.StaticPathsPruned, Engine.Stats.StaticPathsPruned);
  J.Static = false;
  R = LitmusService(ServiceConfig{1, false}).runOne(J);
  EXPECT_EQ(R.StaticRfPruned, 0u);
}

} // namespace
