//===- tests/differential_test.cpp - Cross-model differential suite -------===//
//
// Pins the allowed/forbidden verdict of every corpus program's designated
// weak outcome across every backend (golden table), checks the Thm 6.3
// soundness direction (a compiled target never allows an outcome the
// revised uni-size JavaScript source forbids), and pins the §3.1
// observable weakening: the Fig. 6 shape outcome the original JavaScript
// model forbids is allowed by the ARMv8 scheme.
//
//===----------------------------------------------------------------------===//

#include "targets/Differential.h"

#include "litmus/PathEnum.h"
#include "service/LitmusService.h"
#include "support/Relation.h"

#include <gtest/gtest.h>

#include <map>

using namespace jsmm;

namespace {

/// The golden tables' columns, in order.
const std::vector<std::string> Backends = {
    "js-original", "js-revised", "uni-js", "x86-tso", "armv8-uni",
    "armv7",       "power",      "riscv",  "immlite"};

/// The golden verdict table: per corpus case, whether each backend in
/// Backends allows the designated weak outcome. A = allow, F = forbid.
const std::map<std::string, std::string> GoldenVerdicts = {
    {"mp-plain",          "AAA FAAAAA"},
    {"mp-sc-flag",        "FFF FFFFFF"},
    {"mp-sc",             "FFF FFFFFF"},
    {"sb-plain",          "AAA AAAAAA"},
    {"sb-sc",             "FFF FFFFFF"},
    {"lb-plain",          "AAA FAAAAF"},
    {"corr-plain",        "AAA FFFFFF"},
    {"iriw-plain",        "AAA FAAAAA"},
    {"iriw-sc",           "FFF FFFFFF"},
    {"wrc-plain",         "AAA FAAAAA"},
    {"fig6-shape",        "FAA FAFAFA"},
    {"fig8-shape",        "AFF FFFFFF"},
    {"fig9-shape1",       "AAA FAFAFA"},
    {"fig9-shape2",       "AAA AAAAAA"},
    {"xchg-race",         "FFF FFFFFF"},
    {"mp-sc-flag-litmus", "FFF FFFFFF"},
    {"sb-sc-litmus",      "FFF FFFFFF"},
};

std::vector<bool> verdictsOf(const std::string &Encoded) {
  std::vector<bool> Out;
  for (char C : Encoded)
    if (C == 'A' || C == 'F')
      Out.push_back(C == 'A');
  return Out;
}

} // namespace

TEST(Differential, CorpusMeetsTheBar) {
  std::vector<DiffCase> Corpus = differentialCorpus();
  EXPECT_GE(Corpus.size(), 12u) << "the suite must pin >= 12 programs";
  unsigned ParserLoaded = 0;
  for (const DiffCase &C : Corpus) {
    EXPECT_GT(C.Uni.numThreads(), 1u) << C.Name;
    EXPECT_FALSE(C.Weak.Regs.empty()) << C.Name;
    if (!C.Litmus.empty())
      ++ParserLoaded;
  }
  EXPECT_GE(ParserLoaded, 2u)
      << "the corpus must include parser-loaded litmus tests";
}

TEST(Differential, GoldenVerdictTable) {
  unsigned Pinned = 0;
  for (const DiffCase &C : differentialCorpus()) {
    auto It = GoldenVerdicts.find(C.Name);
    ASSERT_NE(It, GoldenVerdicts.end())
        << C.Name << " has no golden verdict row";
    std::vector<bool> Want = verdictsOf(It->second);
    ASSERT_EQ(Want.size(), Backends.size()) << C.Name;
    LitmusJobResult R = differentialTable(C.program());
    for (size_t B = 0; B < Backends.size(); ++B)
      EXPECT_EQ(R.allows(Backends[B], C.Weak.toString()), Want[B])
          << C.Name << " / " << Backends[B] << " on " << C.Weak.toString();
    ++Pinned;
  }
  EXPECT_GE(Pinned, 12u);
}

TEST(Differential, CompilationSoundnessHolds) {
  // The Thm 6.3 weakening direction on outcome sets: everything a compiled
  // target allows, the revised uni-size JavaScript source allows too.
  for (const DiffCase &C : differentialCorpus()) {
    LitmusJobResult R = differentialTable(C.program());
    EXPECT_TRUE(R.SoundnessViolations.empty())
        << C.Name << ": " << R.SoundnessViolations.front();
  }
}

TEST(Differential, Fig6ShapeIsTheObservableWeakening) {
  // The §3.1 discovery: ARMv8 allows an outcome the original JavaScript
  // model forbids (which is why the model had to be weakened — js-revised
  // and uni-js allow it).
  for (const DiffCase &C : differentialCorpus()) {
    if (C.Name != "fig6-shape")
      continue;
    LitmusJobResult R = differentialTable(C.program());
    EXPECT_FALSE(R.allows("js-original", C.Weak.toString()));
    EXPECT_TRUE(R.allows("js-revised", C.Weak.toString()));
    EXPECT_TRUE(R.allows("uni-js", C.Weak.toString()));
    EXPECT_TRUE(R.allows("armv8-uni", C.Weak.toString()));
    std::string Expected = "armv8-uni: " + C.Weak.toString();
    bool Found = false;
    for (const std::string &W : R.ObservableWeakenings)
      Found = Found || W == Expected;
    EXPECT_TRUE(Found) << "expected observable weakening '" << Expected
                       << "'";
    return;
  }
  FAIL() << "fig6-shape missing from the corpus";
}

TEST(Differential, UniSizeModelMatchesMixedRevised) {
  // The §6.3 reduction on the whole corpus: the uni-size model and the
  // revised mixed-size model agree on full outcome sets for the aligned
  // u32 rendering.
  for (const DiffCase &C : differentialCorpus()) {
    LitmusJobResult R = differentialTable(C.program());
    EXPECT_EQ(R.AllowedByBackend.at("uni-js"),
              R.AllowedByBackend.at("js-revised"))
        << C.Name;
  }
}

TEST(Differential, ReportsAreStableAcrossEngineConfigs) {
  // The differential verdicts are engine-config independent: sharded and
  // unpruned runs produce the identical report, the mixed-size ARMv8
  // column included.
  for (const DiffCase &C : differentialCorpus()) {
    Program P = C.program();
    LitmusJobResult Seq =
        differentialTable(P, ExecutionEngine(EngineConfig{1, true}));
    ASSERT_TRUE(Seq.AllowedByBackend.count("armv8")) << C.Name;
    for (EngineConfig Cfg : {EngineConfig{4, true}, EngineConfig{1, false}}) {
      LitmusJobResult R = differentialTable(P, ExecutionEngine(Cfg));
      EXPECT_EQ(Seq.AllowedByBackend, R.AllowedByBackend) << C.Name;
      EXPECT_EQ(Seq.SoundnessViolations, R.SoundnessViolations) << C.Name;
      EXPECT_EQ(Seq.ObservableWeakenings, R.ObservableWeakenings) << C.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// The large-program corpus (65+ events, dynamic relation tier)
//===----------------------------------------------------------------------===//

namespace {

/// Golden verdicts of the large corpus, same column order as above. The
/// rows deliberately mirror their small-corpus counterparts (sb-plain,
/// iriw-plain): padding a program with independent writer threads must
/// not change any backend's verdict on the core shape's weak outcome.
const std::map<std::string, std::string> LargeGoldenVerdicts = {
    {"sb-wide-66",    "AAA AAAAAA"},
    {"sb-wide-126",   "AAA AAAAAA"},
    {"iriw-chain-9t", "AAA FAAAAA"},
};

} // namespace

TEST(DifferentialLarge, CorpusCrossesTheOldCeiling) {
  std::vector<DiffCase> Corpus = largeDifferentialCorpus();
  ASSERT_GE(Corpus.size(), 3u);
  for (const DiffCase &C : Corpus) {
    unsigned Bound = uniProgramEventBound(C.Uni);
    EXPECT_GT(Bound, 64u) << C.Name << " must need rows of several words";
    EXPECT_LE(Bound, Relation::MaxSize) << C.Name;
  }
  // At least one entry is a 9-thread program, and one crosses the ceiling
  // in its mixed (litmus) rendering too.
  bool NineThreads = false, LargeMixed = false;
  for (const DiffCase &C : Corpus) {
    NineThreads = NineThreads || C.Uni.numThreads() == 9;
    LargeMixed =
        LargeMixed || programEventUpperBound(mixedFromUni(C.Uni)) > 64;
  }
  EXPECT_TRUE(NineThreads);
  EXPECT_TRUE(LargeMixed);
}

TEST(DifferentialLarge, GoldenVerdictTable) {
  // Pinned verdicts for every backend on every 65+-event corpus program —
  // the "real verdicts for large programs" acceptance gate.
  unsigned Pinned = 0;
  for (const DiffCase &C : largeDifferentialCorpus()) {
    auto It = LargeGoldenVerdicts.find(C.Name);
    ASSERT_NE(It, LargeGoldenVerdicts.end())
        << C.Name << " has no golden verdict row";
    std::vector<bool> Want = verdictsOf(It->second);
    ASSERT_EQ(Want.size(), Backends.size()) << C.Name;
    LitmusJobResult R = differentialTable(C.program());
    for (size_t B = 0; B < Backends.size(); ++B) {
      ASSERT_TRUE(R.AllowedByBackend.count(Backends[B]))
          << C.Name << " missing column " << Backends[B];
      EXPECT_EQ(R.allows(Backends[B], C.Weak.toString()), Want[B])
          << C.Name << " / " << Backends[B] << " on " << C.Weak.toString();
    }
    EXPECT_TRUE(R.SoundnessViolations.empty())
        << C.Name << ": " << R.SoundnessViolations.front();
    ++Pinned;
  }
  EXPECT_GE(Pinned, 3u);
}

TEST(DifferentialLarge, ReportsAreStableAcrossEngineConfigs) {
  // Sharded and unpruned engine runs produce byte-identical large-program
  // reports, exactly as on the small corpus.
  for (const DiffCase &C : largeDifferentialCorpus()) {
    if (C.Name == "sb-wide-126")
      continue; // one skip keeps the test quick; the others cover both shapes
    Program P = C.program();
    LitmusJobResult Base = differentialTable(P);
    LitmusJobResult Sharded =
        differentialTable(P, ExecutionEngine(EngineConfig{4, true, false}));
    LitmusJobResult Unpruned =
        differentialTable(P, ExecutionEngine(EngineConfig{1, false, false}));
    EXPECT_EQ(Base.AllowedByBackend, Sharded.AllowedByBackend) << C.Name;
    EXPECT_EQ(Base.AllowedByBackend, Unpruned.AllowedByBackend) << C.Name;
  }
}

TEST(DifferentialLarge, PaddingPreservesTheCoreVerdicts) {
  // The wide-SB entries are sb-plain plus independent writers; their full
  // SB-core outcome sets must match sb-plain's exactly.
  std::map<std::string, std::vector<std::string>> Core;
  for (const DiffCase &C : differentialCorpus())
    if (C.Name == "sb-plain")
      Core = differentialTable(C.program()).AllowedByBackend;
  ASSERT_FALSE(Core.empty());
  for (const DiffCase &C : largeDifferentialCorpus()) {
    if (C.Name != "sb-wide-66" && C.Name != "sb-wide-126")
      continue;
    LitmusJobResult R = differentialTable(C.program());
    for (const std::string &Backend : Backends)
      EXPECT_EQ(R.AllowedByBackend.at(Backend), Core.at(Backend))
          << C.Name << " / " << Backend;
  }
}
