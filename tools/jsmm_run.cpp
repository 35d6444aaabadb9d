//===- tools/jsmm_run.cpp - Command-line litmus runner --------------------===//
///
/// \file
/// The jsmm equivalent of a herd7 session, on every engine backend:
///
///   jsmm-run test.litmus                 # revised JavaScript model
///   jsmm-run test.litmus --model=original
///   jsmm-run test.litmus --model=x86-tso # compiled, target-model verdicts
///   jsmm-run test.litmus --threads=4     # sharded engine enumeration
///   jsmm-run test.litmus --solver=brute  # linear-extension tot oracle
///                                        # (default: propagate)
///   jsmm-run test.litmus --reduce=off    # disable the equivalence-aware
///                                        # enumeration (default: on)
///   jsmm-run test.litmus --no-static     # disable the static DRF-SC
///                                        # fast path (default: on)
///   jsmm-run test.litmus --arm           # also the compiled ARMv8 verdict
///   jsmm-run test.litmus --scdrf         # also the SC-DRF report
///   jsmm-run --list-models               # every backend, one per line
///
/// Prints the allowed outcomes and checks any `allow`/`forbid`
/// expectations in the file; exits non-zero if an expectation fails.
///
/// JavaScript backends run the litmus program as written. Target backends
/// (x86-tso, armv8-uni, armv7, power, riscv, immlite) require the
/// uni-size fragment — straight-line code over uniform non-overlapping
/// cells — which is compiled with the Thm 6.3 scheme and enumerated under
/// the architecture's axiomatic model; `armv8` compiles to the mixed-size
/// ARMv8 model of §4.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "obs/Obs.h"
#include "support/Str.h"
#include "tools/LitmusParser.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

using namespace jsmm;

namespace {

struct JsVariant {
  const char *Name;
  ModelSpec Spec;
  const char *Desc;
};

std::vector<JsVariant> jsVariants() {
  return {
      {"original", ModelSpec::original(),
       "JavaScript model as specified (pre-repair)"},
      {"armfix", ModelSpec::armFixOnly(),
       "original + the ARMv8 compilation fix only"},
      {"revised", ModelSpec::revised(),
       "the paper's repaired model (default)"},
      {"strong", ModelSpec::revisedStrongTearFree(),
       "revised + strong tear-free reads"},
  };
}

void listModels(std::ostream &Out) {
  Out << "jsmm-run backends (--model=NAME):\n"
      << "  JavaScript (mixed-size litmus program as written):\n";
  for (const JsVariant &V : jsVariants())
    Out << "    " << padRight(V.Name, 11) << V.Desc << "\n";
  Out << "  compiled ARMv8 (mixed-size, \xC2\xA7" "4 model):\n"
      << "    " << padRight("armv8", 11)
      << "the litmus program under the \xC2\xA7" "5.1 scheme\n"
      << "  compiled Thm 6.3 targets (uni-size fragment only):\n";
  for (const TargetModel &M : TargetModel::all())
    Out << "    " << padRight(M.name(), 11) << targetArchName(M.arch())
        << " axiomatic model\n";
  Out << "capacity tiers (selected per program by event count):\n"
      << "  <= " << Relation::MaxSize
      << " events    inline relations, order-search solver\n"
      << "  <= " << EngineConfig().SatThreshold
      << " events   heap-backed relations, order-search solver\n"
      << "  <= " << DynRelation::MaxSize
      << " events  heap-backed relations, SAT/CDCL consistency tier\n";
}

int usage() {
  std::cerr << "usage: jsmm-run <file.litmus> [--model=NAME] [--threads=N] "
               "[--solver=brute|propagate|sat] [--reduce=on|off] "
               "[--no-static] [--arm] "
               "[--scdrf] [--stats[=json]] [--trace=FILE]\n"
               "  --no-static    disable the static DRF-SC fast path "
               "(statically\n"
               "                 race-free programs answered by one SC "
               "enumeration)\n"
               "       jsmm-run --list-models\n"
               "  --stats        enumeration-effort footer (candidates, "
               "pruned/slept\n"
               "                 subtrees, static classification and "
               "pruning, tier\n"
               "                 and solver, solver counters; the static "
               "block prints\n"
               "                 even under --no-static)\n"
               "  --stats=json   the footer as one 'run-summary' JSON "
               "line\n"
               "  --trace=FILE   append JSONL trace events to FILE\n";
  return 2;
}

int unknownModel(const std::string &Name) {
  std::cerr << "jsmm-run: unknown model '" << Name
            << "'; pick one of the following (or run --list-models):\n";
  listModels(std::cerr);
  return 2;
}

/// Prints \p Allowed and checks \p Expectations against it; \returns the
/// number of failed expectations.
template <typename ResultT>
int reportOutcomes(const ResultT &R,
                   const std::vector<LitmusExpectation> &Expectations) {
  std::cout << "allowed outcomes (" << R.Allowed.size() << "):\n";
  for (const std::string &O : R.outcomeStrings())
    std::cout << "  " << O << "\n";
  int Failures = 0;
  for (const LitmusExpectation &E : Expectations) {
    bool Observed = R.allows(E.O);
    bool Ok = Observed == E.Allowed;
    Failures += Ok ? 0 : 1;
    std::cout << (Ok ? "[ok]   " : "[FAIL] ")
              << (E.Allowed ? "allow  " : "forbid ") << E.O.toString()
              << "  -> " << (Observed ? "allowed" : "forbidden") << "\n";
  }
  return Failures;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path;
  std::string ModelName = "revised";
  std::string TracePath;
  bool Stats = false, StatsJson = false;
  EngineConfig Cfg;
  // The CLI defaults to the equivalence-aware enumeration: the allowed
  // outcomes are identical to the unreduced run (reduction_test pins
  // this), only the work to get there shrinks. --reduce=off restores the
  // exhaustive walk for debugging and A/B timing.
  Cfg.Reduction = true;
  // Likewise the static DRF-SC fast path: statically race-free programs
  // get the identical verdict table from one SC enumeration (the
  // static-vs-dynamic tests pin this); --no-static restores the full
  // model enumeration.
  Cfg.StaticFastPath = true;
  bool WithArm = false, WithScDrf = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--list-models") {
      listModels(std::cout);
      return 0;
    }
    if (Arg.rfind("--threads=", 0) == 0) {
      // Strict parse: non-numeric and overflowing values are friendly
      // errors (exit 2), never a crash or a silently clamped config.
      std::optional<unsigned> N =
          parseCliUnsigned("jsmm-run", "--threads", Arg.substr(10));
      if (!N)
        return 2;
      Cfg.Threads = *N;
      continue;
    }
    if (Arg.rfind("--model=", 0) == 0) {
      ModelName = Arg.substr(8);
      continue;
    }
    if (Arg.rfind("--reduce=", 0) == 0) {
      std::string Val = Arg.substr(9);
      if (Val != "on" && Val != "off") {
        std::cerr << "jsmm-run: --reduce takes 'on' or 'off', not '" << Val
                  << "'\n";
        return 2;
      }
      Cfg.Reduction = Val == "on";
      continue;
    }
    if (Arg.rfind("--solver=", 0) == 0) {
      std::string Name = Arg.substr(9);
      std::optional<SolverKind> Kind = solverKindByName(Name);
      if (!Kind) {
        std::cerr << "jsmm-run: unknown solver '" << Name
                  << "'; pick 'brute', 'propagate' or 'sat'\n";
        return 2;
      }
      // The process default: every layer (validity, deadness, searches,
      // engine backends) resolves its unset SolverConfig to this.
      setDefaultSolverKind(*Kind);
      continue;
    }
    if (Arg == "--stats") {
      Stats = true;
      continue;
    }
    if (Arg == "--stats=json") {
      Stats = StatsJson = true;
      continue;
    }
    if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = Arg.substr(8);
      if (TracePath.empty()) {
        std::cerr << "jsmm-run: --trace needs a file path\n";
        return 2;
      }
      continue;
    }
    if (Arg == "--no-static") {
      Cfg.StaticFastPath = false;
      continue;
    }
    if (Arg == "--arm")
      WithArm = true;
    else if (Arg == "--scdrf")
      WithScDrf = true;
    else if (!Arg.empty() && Arg[0] == '-')
      return usage();
    else
      Path = Arg;
  }

  // Resolve the backend up front so a typo fails before any file I/O.
  const ModelSpec *JsSpec = nullptr;
  static std::vector<JsVariant> Variants = jsVariants();
  for (const JsVariant &V : Variants)
    if (ModelName == V.Name)
      JsSpec = &V.Spec;
  const TargetModel *Target = TargetModel::byName(ModelName);
  bool MixedArm = ModelName == "armv8";
  if (!JsSpec && !Target && !MixedArm)
    return unknownModel(ModelName);

  if (Path.empty())
    return usage();
  if ((WithArm || WithScDrf) && !JsSpec) {
    std::cerr << "jsmm-run: --arm/--scdrf apply to the JavaScript backends "
                 "only (model '" << ModelName << "' is a compiled backend)\n";
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::cerr << "jsmm-run: cannot open '" << Path << "'\n";
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  std::optional<LitmusFile> File = parseLitmus(Buf.str(), &Error);
  if (!File) {
    std::cerr << "jsmm-run: " << Path << ": " << Error << "\n";
    return 2;
  }

  if (Stats)
    obs::setMetricsEnabled(true);
  std::unique_ptr<obs::TraceSink> Trace;
  if (!TracePath.empty()) {
    std::string TraceError;
    Trace = obs::TraceSink::open(TracePath, &TraceError);
    if (!Trace) {
      std::cerr << "jsmm-run: " << TraceError << "\n";
      return 2;
    }
    obs::setTrace(Trace.get());
  }

  ExecutionEngine Engine(Cfg);
  std::cout << "test " << File->P.Name << " (model: " << ModelName
            << ", threads: " << Engine.effectiveThreads()
            << ", solver: " << solverKindName(defaultSolverKind())
            << ", reduce: " << (Cfg.Reduction ? "on" : "off") << ")\n";

  // The footer's enumeration facts, filled by whichever backend ran.
  std::string Tier;
  std::string SolverName;
  uint64_t Considered = 0, Valid = 0;

  int Failures = 0;
  try {
  if (Target) {
    std::optional<UniProgram> Uni = uniFromProgram(File->P, &Error);
    if (!Uni) {
      std::cerr << "jsmm-run: " << Path << ": not in the uni-size fragment "
                << "required by target backends: " << Error << "\n";
      return 2;
    }
    CompiledTarget CT = compileUni(*Uni, Target->arch());
    OutcomeSummary TR = Engine.enumerateOutcomes(CT, *Target);
    Tier = TR.Tier;
    SolverName = solverKindName(TR.SolverUsed);
    Considered = TR.CandidatesConsidered;
    Valid = TR.ValidCandidates;
    Failures = reportOutcomes(TR, File->Expectations);
  } else if (MixedArm) {
    if (File->P.hasNonZeroInit()) {
      std::cerr << "jsmm-run: " << Path << ": the armv8 backend assumes "
                << "zero-initialised buffers; litmus 'init' directives are "
                << "not supported there\n";
      return 2;
    }
    CompiledProgram CP = compileToArm(File->P);
    ArmEnumerationResult AR = Engine.enumerate(CP.Arm, Armv8Model());
    // The mixed-size ARMv8 backend serves the fixed tier only and its
    // axiomatic check is solver-free.
    Tier = "inline";
    Considered = AR.CandidatesConsidered;
    Valid = AR.ConsistentCandidates;
    Failures = reportOutcomes(AR, File->Expectations);
  } else {
    // Outcome-level enumeration serves both capacity tiers: programs
    // beyond 64 events run on the heap-backed DynRelation automatically.
    OutcomeSummary R = Engine.enumerateOutcomes(File->P, JsModel(*JsSpec));
    Tier = R.Tier;
    SolverName = solverKindName(R.SolverUsed);
    Considered = R.CandidatesConsidered;
    Valid = R.ValidCandidates;
    Failures = reportOutcomes(R, File->Expectations);

    if (WithArm && File->P.hasNonZeroInit()) {
      std::cerr << "jsmm-run: " << Path << ": skipping --arm: the armv8 "
                << "backend assumes zero-initialised buffers\n";
      WithArm = false;
    }
    if (WithArm) {
      CompiledProgram CP = compileToArm(File->P);
      ArmEnumerationResult Arm = Engine.enumerate(CP.Arm, Armv8Model());
      std::cout << "compiled ARMv8 outcomes (" << Arm.Allowed.size()
                << "):\n";
      for (const auto &[O, X] : Arm.Allowed) {
        (void)X;
        std::cout << "  " << O.toString()
                  << (R.allows(O) ? "" : "   <- not allowed by JS!") << "\n";
      }
    }

    if (WithScDrf) {
      ScDrfReport Rep = Engine.scDrf(File->P, JsModel(*JsSpec));
      std::cout << "SC-DRF: data-race-free="
                << (Rep.DataRaceFree ? "yes" : "no")
                << " all-SC=" << (Rep.AllValidExecutionsSC ? "yes" : "no")
                << " property=" << (Rep.holds() ? "holds" : "VIOLATED")
                << "\n";
    }
  }
  } catch (const std::length_error &E) {
    // The parser bounds source programs; compiled forms (fence-inserting
    // schemes) and the witness-carrying --arm/--scdrf extras can still
    // exceed a relation tier, which the engine reports by throwing a
    // CapacityError.
    std::cerr << "jsmm-run: " << Path << ": " << E.what() << "\n";
    return 2;
  }
  obs::setTrace(nullptr);

  if (Stats && !StatsJson) {
    const EngineStats &ES = Engine.Stats;
    obs::MetricsRegistry &Reg = obs::registry();
    // The static classification block prints whether or not the fast path
    // is enabled (--no-static disables the *use* of the analysis, not the
    // footer) — so a user can see why a program wasn't served statically.
    analysis::StaticValues SV = analysis::analyzeValues(File->P);
    // Racy bytes: the (block, byte) cells both accesses of some may-race
    // pair cover.
    std::set<std::pair<unsigned, unsigned>> RacyBytes;
    for (const analysis::MayRacePair &MR : SV.C.MayRaces) {
      const Acc &A = SV.C.Accesses[MR.A].Access;
      const Acc &B = SV.C.Accesses[MR.B].Access;
      for (unsigned Byte = std::max(A.Offset, B.Offset);
           Byte < std::min(A.Offset + A.Width, B.Offset + B.Width); ++Byte)
        RacyBytes.insert({A.Block, Byte});
    }
    std::cout << "stats: tier " << (Tier.empty() ? "-" : Tier) << ", solver "
              << (SolverName.empty() ? "-" : SolverName) << "\n"
              << "stats: candidates considered " << Considered << ", valid "
              << Valid << "\n"
              << "stats: static bytes " << SV.Bytes.size() << ", racy bytes "
              << RacyBytes.size() << ", may-races " << SV.C.MayRaces.size()
              << ", drf " << (SV.C.StaticallyDrf ? "yes" : "no")
              << ", fast path " << (Cfg.StaticFastPath ? "on" : "off") << "\n"
              << "stats: static rf pruned " << ES.StaticRfPruned
              << ", paths pruned " << ES.StaticPathsPruned
              << ", may-rf excluded " << SV.MayRfExcluded << "\n"
              << "stats: work items " << ES.WorkItems
              << ", pruned subtrees " << ES.PrunedSubtrees
              << ", slept branches " << ES.SleptBranches << "\n"
              << "stats: solver queries "
              << Reg.counter("solver.queries").value()
              << ", propagate branches "
              << Reg.counter("solver.propagate.branches").value()
              << ", forced edges "
              << Reg.counter("solver.propagate.forced_edges").value()
              << ", sat decisions "
              << Reg.counter("solver.sat.decisions").value()
              << ", sat conflicts "
              << Reg.counter("solver.sat.conflicts").value() << "\n";
  } else if (StatsJson) {
    JsonValue Summary = obs::runSummary("jsmm-run");
    Summary.set("test", JsonValue(File->P.Name));
    Summary.set("model", JsonValue(ModelName));
    Summary.set("tier", JsonValue(Tier));
    Summary.set("solver", JsonValue(SolverName));
    JsonValue Cand = JsonValue::object();
    Cand.set("considered", JsonValue(static_cast<uint64_t>(Considered)));
    Cand.set("valid", JsonValue(static_cast<uint64_t>(Valid)));
    Summary.set("candidates", std::move(Cand));
    analysis::StaticValues SV = analysis::analyzeValues(File->P);
    JsonValue St = JsonValue::object();
    St.set("drf", JsonValue(SV.C.StaticallyDrf));
    St.set("may_races",
           JsonValue(static_cast<uint64_t>(SV.C.MayRaces.size())));
    St.set("may_rf_excluded", JsonValue(SV.MayRfExcluded));
    St.set("rf_pruned", JsonValue(Engine.Stats.StaticRfPruned));
    St.set("paths_pruned", JsonValue(Engine.Stats.StaticPathsPruned));
    St.set("fastpath", JsonValue(Cfg.StaticFastPath));
    Summary.set("static", std::move(St));
    std::cout << Summary.toString() << "\n";
  }

  return Failures == 0 ? 0 : 1;
}
