//===- tools/jsmm_run.cpp - Command-line litmus runner --------------------===//
///
/// \file
/// The jsmm equivalent of a herd7 session, on every engine backend:
///
///   jsmm-run test.litmus                 # revised JavaScript model
///   jsmm-run test.litmus --model=original
///   jsmm-run test.litmus --model=x86-tso # compiled, target-model verdicts
///   jsmm-run test.litmus --arm           # also the compiled ARMv8 verdict
///   jsmm-run test.litmus --scdrf         # also the SC-DRF report
///   jsmm-run --list-models               # every backend, one per line
///
/// plus the flags every front door shares (tools/CliFlags.h: --threads,
/// --solver, --reduce, --no-static, --stats, --trace).
///
/// Prints the allowed outcomes and checks any `allow`/`forbid`
/// expectations in the file; exits non-zero if an expectation fails.
///
/// The verdicts come from one LitmusService job, so jsmm-run, jsmm-batch
/// and the C++ API answer through the same dispatch: JavaScript backends
/// run the litmus program as written; target backends (x86-tso,
/// armv8-uni, armv7, power, riscv, immlite) require the uni-size fragment
/// — straight-line code over uniform non-overlapping cells — compiled with
/// the Thm 6.3 scheme; `armv8` compiles to the mixed-size ARMv8 model of
/// §4. --arm is a second job on the armv8 backend. Only the SC-DRF report
/// (a witness query no job answers) calls the engine directly.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticValues.h"
#include "engine/ExecutionEngine.h"
#include "service/LitmusService.h"
#include "support/CapacityError.h"
#include "tools/CliFlags.h"

#include <algorithm>
#include <iostream>
#include <set>

using namespace jsmm;

namespace {

void listModels(std::ostream &Out) {
  Out << "jsmm-run backends (--model=NAME):\n";
  std::string Group;
  for (const BackendInfo &B : backends()) {
    if (B.Group != Group)
      Out << "  " << (Group = B.Group) << ":\n";
    Out << "    " << padRight(B.Name, 11) << B.Desc << "\n";
  }
  Out << "capacity tiers (selected per program by event count):\n"
      << "  <= " << Relation::MaxSize
      << " events    inline relations, order-search solver\n"
      << "  <= " << EngineConfig().SatThreshold
      << " events   heap-backed relations, order-search solver\n"
      << "  <= " << DynRelation::MaxSize
      << " events  heap-backed relations, SAT/CDCL consistency tier\n";
}

int usage() {
  std::cerr << "usage: jsmm-run <file.litmus> [--model=NAME] [--arm] "
               "[--scdrf] [shared flags]\n"
               "       jsmm-run --list-models\n"
               "  --arm          also the compiled ARMv8 verdict\n"
               "  --scdrf        also the SC-DRF report\n"
               "shared flags (--stats prints an enumeration-effort footer: "
               "candidates,\npruned/slept subtrees, static classification "
               "and pruning, tier and solver,\nsolver counters; the static "
               "block prints even under --no-static):\n"
            << CliFlags::Help;
  return 2;
}

int unknownModel(const std::string &Name) {
  std::cerr << "jsmm-run: unknown model '" << Name
            << "'; pick one of the following (or run --list-models):\n";
  listModels(std::cerr);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  CliFlags Flags("jsmm-run");
  std::vector<std::string> Args;
  if (!Flags.parse(Argc, Argv, Args))
    return 2;
  std::string Path;
  std::string ModelName = "revised";
  bool WithArm = false, WithScDrf = false;
  for (const std::string &Arg : Args) {
    if (Arg == "--list-models") {
      listModels(std::cout);
      return 0;
    }
    if (Arg.rfind("--model=", 0) == 0)
      ModelName = Arg.substr(8);
    else if (Arg == "--arm")
      WithArm = true;
    else if (Arg == "--scdrf")
      WithScDrf = true;
    else if (!Arg.empty() && Arg[0] == '-')
      return usage();
    else
      Path = Arg;
  }

  // Resolve the backend up front so a typo fails before any file I/O.
  const BackendInfo *Backend = backendByName(ModelName);
  if (!Backend)
    return unknownModel(ModelName);
  if (Path.empty())
    return usage();
  const ModelSpec *JsSpec =
      Backend->K == BackendInfo::Kind::Js ? &Backend->Js : nullptr;
  if ((WithArm || WithScDrf) && !JsSpec) {
    std::cerr << "jsmm-run: --arm/--scdrf apply to the JavaScript backends "
                 "only (model '" << ModelName << "' is a compiled backend)\n";
    return 2;
  }

  std::optional<std::string> Text = readFileText(Path);
  if (!Text) {
    std::cerr << "jsmm-run: cannot open '" << Path << "'\n";
    return 2;
  }
  if (!Flags.start())
    return 2;
  auto Fail = [&Path](const std::string &Error) {
    std::cerr << "jsmm-run: " << Path << ": " << Error << "\n";
    return 2;
  };

  // The CLI defaults to the equivalence-aware enumeration and the static
  // DRF-SC fast path: the allowed outcomes are identical to the exhaustive
  // walk (reduction_test and the static-vs-dynamic tests pin this), only
  // the work to get there shrinks. --reduce=off and --no-static restore
  // the full walk for debugging and A/B timing.
  LitmusJob Job;
  Job.Litmus = *Text;
  Job.Model = ModelName;
  Job.Threads = Flags.Threads;
  Job.Reduce = Flags.Reduce;
  Job.Static = Flags.Static;
  LitmusService Service(ServiceConfig{1, false});
  LitmusJobResult R = Service.runOne(Job);
  // The --stats footer describes this job alone: snapshot the registry
  // before the --arm job and the SC-DRF walk add their effort.
  JsonValue Summary = Flags.Stats ? obs::runSummary("jsmm-run") : JsonValue();

  // R.Name is the parsed program's name; a file that did not parse gets
  // no header.
  if (R.Name.empty())
    return Fail(R.Error);
  ExecutionEngine Engine(EngineConfig{Flags.Threads});
  std::cout << "test " << R.Name << " (model: " << ModelName
            << ", threads: " << Engine.effectiveThreads()
            << ", solver: " << solverKindName(defaultSolverKind())
            << ", reduce: " << (Flags.Reduce ? "on" : "off") << ")\n";
  if (!R.ok())
    return Fail(R.Error);

  const std::vector<std::string> &Allowed = R.AllowedByBackend[ModelName];
  std::cout << "allowed outcomes (" << Allowed.size() << "):\n";
  for (const std::string &O : Allowed)
    std::cout << "  " << O << "\n";
  for (const ExpectationResult &E : R.Expectations)
    std::cout << (E.Ok ? "[ok]   " : "[FAIL] ")
              << (E.Allowed ? "allow  " : "forbid ") << E.Outcome << "  -> "
              << (E.Observed ? "allowed" : "forbidden") << "\n";

  if (WithArm) {
    Job.Model = "armv8";
    LitmusJobResult Arm = Service.runOne(Job);
    if (Arm.Status == JobStatus::Unsupported) {
      std::cerr << "jsmm-run: " << Path << ": skipping --arm: the armv8 "
                << "backend assumes zero-initialised buffers\n";
    } else if (!Arm.ok()) {
      return Fail(Arm.Error);
    } else {
      const std::vector<std::string> &ArmOutcomes =
          Arm.AllowedByBackend["armv8"];
      std::cout << "compiled ARMv8 outcomes (" << ArmOutcomes.size()
                << "):\n";
      for (const std::string &O : ArmOutcomes)
        std::cout << "  " << O
                  << (R.allows(ModelName, O) ? "" : "   <- not allowed by JS!")
                  << "\n";
    }
  }

  // The job parsed, so the file does; the SC-DRF report and the footer's
  // static block need the program itself.
  LitmusFile File = parseLitmus(*Text).value_or(LitmusFile());
  if (WithScDrf) {
    ScDrfReport Rep;
    try {
      Rep = Engine.scDrf(File.P, JsModel(*JsSpec));
    } catch (const CapacityError &E) {
      // The witness-carrying walk serves the fixed 64-event tier only.
      return Fail(E.what());
    }
    std::cout << "SC-DRF: data-race-free=" << (Rep.DataRaceFree ? "yes" : "no")
              << " all-SC=" << (Rep.AllValidExecutionsSC ? "yes" : "no")
              << " property=" << (Rep.holds() ? "holds" : "VIOLATED") << "\n";
  }

  int Status = R.expectationsOk() ? 0 : 1;
  if (!Flags.Stats)
    return Status;
  // Tier, candidates and effort come from the engine.* counters of the
  // snapshot, solver activity and value-aware pruning from the result.
  // The static classification prints whether or not the fast path is
  // enabled (--no-static disables the *use* of the analysis, not the
  // footer), so a user can see why a program wasn't served statically.
  const JsonValue &Counters = *Summary.find("counters");
  auto Count = [&Counters](const std::string &Name) {
    const JsonValue *V = Counters.find("engine." + Name);
    return static_cast<uint64_t>(V ? V->asNumber() : 0);
  };
  std::string Tier = "-";
  for (const char *T : {"static", "inline", "dyn"})
    if (Count(std::string("tier.") + T))
      Tier = T;
  analysis::StaticValues SV = analysis::analyzeValues(File.P);
  if (Flags.StatsJson) {
    Summary.set("test", JsonValue(R.Name));
    Summary.set("model", JsonValue(ModelName));
    Summary.set("tier", JsonValue(Tier));
    Summary.set("solver", JsonValue(R.SolverUsed));
    JsonValue Cand = JsonValue::object();
    Cand.set("considered", JsonValue(Count("candidates_considered")));
    Cand.set("valid", JsonValue(Count("valid_candidates")));
    Summary.set("candidates", std::move(Cand));
    JsonValue St = JsonValue::object();
    St.set("drf", JsonValue(SV.C.StaticallyDrf));
    St.set("may_races",
           JsonValue(static_cast<uint64_t>(SV.C.MayRaces.size())));
    St.set("may_rf_excluded", JsonValue(SV.MayRfExcluded));
    St.set("rf_pruned", JsonValue(R.StaticRfPruned));
    St.set("paths_pruned", JsonValue(R.StaticPathsPruned));
    St.set("fastpath", JsonValue(Flags.Static));
    Summary.set("static", std::move(St));
    std::cout << Summary.toString() << "\n";
    return Status;
  }
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
  std::cout << "stats: tier " << Tier << ", solver "
            << (R.SolverUsed.empty() ? "-" : R.SolverUsed) << "\n"
            << "stats: candidates considered "
            << Count("candidates_considered") << ", valid "
            << Count("valid_candidates") << "\n"
            << "stats: static bytes " << SV.Bytes.size() << ", racy bytes "
            << RacyBytes.size() << ", may-races " << SV.C.MayRaces.size()
            << ", drf " << (SV.C.StaticallyDrf ? "yes" : "no")
            << ", fast path " << (Flags.Static ? "on" : "off") << "\n"
            << "stats: static rf pruned " << R.StaticRfPruned
            << ", paths pruned " << R.StaticPathsPruned
            << ", may-rf excluded " << SV.MayRfExcluded << "\n"
            << "stats: work items " << Count("work_items")
            << ", pruned subtrees " << Count("pruned_subtrees")
            << ", slept branches " << Count("slept_branches") << "\n"
            << "stats: solver queries " << R.Solver.Queries
            << ", propagate branches " << R.Solver.PropagateBranches
            << ", forced edges " << R.Solver.PropagateForcedEdges
            << ", sat decisions " << R.Solver.SatDecisions
            << ", sat conflicts " << R.Solver.SatConflicts << "\n";
  return Status;
}
