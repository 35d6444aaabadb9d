//===- tests/engine_counters_test.cpp - Golden engine effort counters -----===//
//
// Pins the absolute effort counters of every engine door on the
// differential corpus: the JavaScript doors (enumerateOutcomes, enumerate
// and scDrf) for the original and revised specs, the mixed-size ARMv8
// enumerate, and both target doors for the six Thm 6.3 backends (the
// outcome door reading the source program's static analysis). Each runs
// at 1 and 4 threads, in the production configuration (reduction and
// static analysis on) and the exhaustive one (both off). Every row pins
// CandidatesConsidered, ValidCandidates/ConsistentCandidates and the five
// EngineStats fields, so a refactor of the enumeration scaffolding cannot
// silently change how much of the space is walked.
//
// The fixture is tests/fixtures/engine_counters.golden. To regenerate it
// after an intended change in effort, run the test with
// JSMM_UPDATE_GOLDEN=1 and review the diff.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"
#include "tools/LitmusParser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace jsmm;

namespace {

std::filesystem::path fixturePath() {
  return std::filesystem::path(__FILE__).parent_path() / "fixtures" /
         "engine_counters.golden";
}

struct NamedConfig {
  const char *Name;
  EngineConfig Cfg;
};

std::vector<NamedConfig> configs() {
  std::vector<NamedConfig> Out;
  for (unsigned Threads : {1u, 4u}) {
    EngineConfig Prod;
    Prod.Threads = Threads;
    Prod.Reduction = true;
    Prod.StaticFastPath = true;
    EngineConfig Exh;
    Exh.Threads = Threads;
    Out.push_back({"prod", Prod});
    Out.push_back({"exhaustive", Exh});
  }
  return Out;
}

std::string row(uint64_t Considered, uint64_t Valid, const EngineStats &S) {
  std::ostringstream OS;
  OS << Considered << ' ' << Valid << ' ' << S.WorkItems << ' '
     << S.PrunedSubtrees << ' ' << S.SleptBranches << ' ' << S.StaticRfPruned
     << ' ' << S.StaticPathsPruned;
  return OS.str();
}

Program jsProgramOf(const DiffCase &C) {
  if (C.Litmus.empty())
    return mixedFromUni(C.Uni);
  std::optional<LitmusFile> File = parseLitmus(C.Litmus);
  EXPECT_TRUE(File.has_value()) << C.Name;
  return File ? File->P : Program(4);
}

/// "case door threads config" -> "considered valid workitems pruned slept
/// static-rf static-paths", for the whole corpus.
std::map<std::string, std::string> measure() {
  std::map<std::string, std::string> Rows;
  for (const DiffCase &C : differentialCorpus()) {
    Program Js = jsProgramOf(C);
    CompiledProgram Arm = compileToArm(Js);
    // The target doors read the source program's analysis, as the
    // service hands it to them; the JavaScript door computes its own.
    analysis::StaticValues SV = analysis::analyzeValues(Js);
    for (const NamedConfig &NC : configs()) {
      ExecutionEngine E(NC.Cfg);
      std::string Suffix = " t" + std::to_string(NC.Cfg.Threads) + " " +
                           NC.Name;
      auto Key = [&](const std::string &Door) {
        return C.Name + " " + Door + Suffix;
      };
      for (const auto &[SpecName, Spec] :
           {std::pair<const char *, ModelSpec>{"original",
                                                ModelSpec::original()},
            {"revised", ModelSpec::revised()}}) {
        JsModel M(Spec);
        std::string Door = std::string("js-") + SpecName;
        OutcomeSummary S = E.enumerateOutcomes(Js, M);
        Rows[Key(Door + ".outcomes")] =
            row(S.CandidatesConsidered, S.ValidCandidates, E.Stats);
        EnumerationResult R = E.enumerate(Js, M);
        Rows[Key(Door + ".enumerate")] =
            row(R.CandidatesConsidered, R.ValidCandidates, E.Stats);
        ScDrfReport D = E.scDrf(Js, M);
        Rows[Key(Door + ".scdrf")] =
            row(D.DataRaceFree, D.AllValidExecutionsSC, E.Stats);
      }
      ArmEnumerationResult AR = E.enumerate(Arm.Arm, Armv8Model());
      Rows[Key("armv8.enumerate")] =
          row(AR.CandidatesConsidered, AR.ConsistentCandidates, E.Stats);
      for (const TargetModel &M : TargetModel::all()) {
        CompiledTarget CT = compileUni(C.Uni, M.arch());
        std::string Name = M.name();
        OutcomeSummary S = E.enumerateOutcomes(CT, M, &SV);
        Rows[Key(Name + ".outcomes")] =
            row(S.CandidatesConsidered, S.ValidCandidates, E.Stats);
        TargetEnumerationResult TR = E.enumerate(CT, M);
        Rows[Key(Name + ".enumerate")] =
            row(TR.CandidatesConsidered, TR.ConsistentCandidates, E.Stats);
      }
    }
  }
  return Rows;
}

std::map<std::string, std::string> loadFixture() {
  std::map<std::string, std::string> Rows;
  std::ifstream In(fixturePath());
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Bar = Line.find(" | ");
    if (Bar == std::string::npos)
      continue;
    Rows[Line.substr(0, Bar)] = Line.substr(Bar + 3);
  }
  return Rows;
}

void writeFixture(const std::map<std::string, std::string> &Rows) {
  std::ofstream Out(fixturePath());
  Out << "# Golden engine effort counters (tests/engine_counters_test.cpp).\n"
         "# case door threads config | considered valid work-items pruned "
         "slept static-rf static-paths\n"
         "# scdrf rows pin the DataRaceFree and AllValidExecutionsSC flags "
         "in the first two columns.\n";
  for (const auto &[K, V] : Rows)
    Out << K << " | " << V << "\n";
}

} // namespace

TEST(EngineCounters, MatchTheGoldenFixture) {
  std::map<std::string, std::string> Measured = measure();
  if (std::getenv("JSMM_UPDATE_GOLDEN")) {
    writeFixture(Measured);
    GTEST_SKIP() << "wrote " << fixturePath();
  }
  std::map<std::string, std::string> Golden = loadFixture();
  ASSERT_FALSE(Golden.empty()) << "missing fixture " << fixturePath();
  EXPECT_EQ(Golden.size(), Measured.size());
  for (const auto &[K, V] : Measured) {
    auto It = Golden.find(K);
    if (It == Golden.end()) {
      ADD_FAILURE() << "no golden row for " << K;
      continue;
    }
    EXPECT_EQ(It->second, V) << K;
  }
}
