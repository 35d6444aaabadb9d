//===- examples/litmus_explorer.cpp - Litmus verdicts across models -------===//
///
/// \file
/// Runs the classic litmus shapes (MP, SB, LB, CoRR, and the paper's
/// figures) through every engine backend side by side — JavaScript
/// original and revised, the compiled mixed-size ARMv8 model, and the six
/// Thm 6.3 target architectures (x86-TSO, uni-size ARMv8, ARMv7, Power,
/// RISC-V, ImmLite) under their compilation schemes — and prints a verdict
/// table for the designated weak outcome of each test. This is the jsmm
/// equivalent of a herd7 session across a whole model zoo; see
/// tests/differential_test.cpp for the pinned version of this table.
///
/// The table is produced through the batch service (service/LitmusService):
/// each shape is submitted as a "differential" job, the batch fans out over
/// the worker pool, and the verdict cells are read off the per-backend
/// allowed sets of the results — the same path `jsmm-batch` serves.
///
/// Run:  build/example_litmus_explorer [--workers=N] [shared flags]
///
/// --workers sizes the service pool (0 = one per hardware thread); the
/// table is identical for every worker count. The shared flags are those
/// of every front door (tools/CliFlags.h): --solver selects the tot-order
/// decider behind every JavaScript verdict (default: the
/// constraint-propagation solver; the brute linear-extension oracle is
/// kept for differential runs), --reduce and --no-static toggle the
/// equivalence-aware enumeration and the static fast path (the table is
/// identical either way — they only change how much of the candidate
/// space is walked), --threads shards each job, and --stats / --trace
/// report the service and solver telemetry.
///
//===----------------------------------------------------------------------===//

#include "engine/TargetModel.h"
#include "paper/Figures.h"
#include "service/LitmusService.h"
#include "tools/CliFlags.h"

#include <iostream>

using namespace jsmm;

namespace {

struct LitmusCase {
  std::string Name;
  Program P;
  Outcome Weak; ///< the outcome whose verdict is interesting
};

std::vector<LitmusCase> cases() {
  std::vector<LitmusCase> Out;

  {
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 1);
    T0.store(Acc::u32(4), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(4));
    T1.load(Acc::u32(0));
    Out.push_back({"MP (all Unordered)", P, paper::outcome({{1, 0, 1},
                                                            {1, 1, 0}})});
  }
  {
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 1);
    T0.store(Acc::u32(4).sc(), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(4).sc());
    T1.load(Acc::u32(0));
    Out.push_back({"MP (SC flag)", P, paper::outcome({{1, 0, 1},
                                                      {1, 1, 0}})});
  }
  {
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    T0.load(Acc::u32(4).sc());
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(4).sc(), 1);
    T1.load(Acc::u32(0).sc());
    Out.push_back({"SB (all SC)", P, paper::outcome({{0, 0, 0},
                                                     {1, 0, 0}})});
  }
  {
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 1);
    T0.load(Acc::u32(4));
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(4), 1);
    T1.load(Acc::u32(0));
    Out.push_back({"SB (all Unordered)", P, paper::outcome({{0, 0, 0},
                                                            {1, 0, 0}})});
  }
  {
    Program P(8);
    ThreadBuilder T0 = P.thread();
    T0.load(Acc::u32(0));
    T0.store(Acc::u32(4), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(4));
    T1.store(Acc::u32(0), 1);
    Out.push_back({"LB (all Unordered)", P, paper::outcome({{0, 0, 1},
                                                            {1, 0, 1}})});
  }
  {
    Program P(4);
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(0));
    T1.load(Acc::u32(0));
    Out.push_back({"CoRR (Unordered)", P, paper::outcome({{1, 0, 1},
                                                          {1, 1, 0}})});
  }
  Out.push_back({"Fig. 6 (ARMv8 violation)", paper::fig6Program(),
                 paper::fig6Outcome()});
  Out.push_back({"Fig. 8 (SC-DRF violation)", paper::fig8Program(),
                 paper::fig8Outcome()});
  return Out;
}

/// "A" when \p Backend has a verdict and allows the outcome, "-" when it
/// forbids it, "." when the backend has no column (not uni-size
/// expressible).
std::string mark(const LitmusJobResult &R, const std::string &Backend,
                 const std::string &Outcome) {
  if (!R.AllowedByBackend.count(Backend))
    return ".";
  return R.allows(Backend, Outcome) ? "A" : "-";
}

} // namespace

int main(int Argc, char **Argv) {
  CliFlags Flags("litmus_explorer");
  std::vector<std::string> Args;
  if (!Flags.parse(Argc, Argv, Args))
    return 2;
  unsigned Workers = 1;
  for (const std::string &Arg : Args) {
    if (Arg.rfind("--workers=", 0) != 0) {
      std::cerr << "usage: litmus_explorer [--workers=N] [shared flags]\n"
                << CliFlags::Help;
      return 2;
    }
    std::optional<unsigned> N =
        parseThreadCount("litmus_explorer", "--workers", Arg.substr(10));
    if (!N)
      return 2;
    Workers = *N;
  }

  // One differential job per shape, batched through the service.
  std::vector<LitmusCase> Cases = cases();
  std::vector<LitmusJob> Jobs;
  for (const LitmusCase &C : Cases) {
    LitmusJob J;
    J.Name = C.Name;
    LitmusFile F;
    F.P = C.P;
    J.Litmus = emitLitmus(F);
    J.Model = "differential";
    J.Threads = Flags.Threads;
    J.Reduce = Flags.Reduce;
    J.Static = Flags.Static;
    Jobs.push_back(std::move(J));
  }
  ServiceConfig Cfg;
  Cfg.Workers = Workers;
  LitmusService Service(Cfg);
  if (!Flags.start())
    return 2;
  std::vector<LitmusJobResult> Results = Service.run(Jobs);

  std::cout << "Verdicts computed with the '"
            << solverKindName(defaultSolverKind())
            << "' tot-order solver, through the batch service ("
            << Service.workersFor(Jobs.size()) << " workers, reduce "
            << (Flags.Reduce ? "on" : "off") << ").\n";
  std::cout << "Verdict of each test's weak outcome per backend:\n"
            << "  A = allowed, - = forbidden, . = not expressible uni-size\n"
            << "  (target backends compile the uni-size fragment: "
               "straight-line, uniform widths)\n\n";
  std::cout << padRight("test", 28) << padRight("weak outcome", 22)
            << padRight("js-orig", 9) << padRight("js-rev", 8)
            << padRight("armv8", 7);
  for (const TargetModel &M : TargetModel::all())
    std::cout << padRight(M.name(), std::string(M.name()).size() + 2);
  std::cout << "\n" << std::string(127, '-') << "\n";

  bool AllOk = true;
  for (size_t I = 0; I < Cases.size(); ++I) {
    const LitmusJobResult &R = Results[I];
    std::string Weak = Cases[I].Weak.toString();
    std::cout << padRight(Cases[I].Name, 28) << padRight(Weak, 22);
    if (!R.ok()) {
      AllOk = false;
      std::cout << jobStatusName(R.Status) << ": " << R.Error << "\n";
      continue;
    }
    std::cout << padRight(mark(R, "js-original", Weak), 9)
              << padRight(mark(R, "js-revised", Weak), 8)
              << padRight(mark(R, "armv8", Weak), 7);
    for (const TargetModel &M : TargetModel::all())
      std::cout << padRight(mark(R, M.name(), Weak),
                            std::string(M.name()).size() + 2);
    std::cout << "\n";
  }
  std::cout << "\nColumns where a compiled backend shows A while js-orig "
               "shows - mark outcomes\nthe original model could not absorb; "
               "Fig. 6's armv8/armv8-uni cells are exactly\nthe paper's "
               "\xC2\xA7" "3.1 discovery (repaired by the revised column). "
               "The differential suite\n(tests/differential_test.cpp) pins "
               "this table across the full corpus.\n";
  if (Flags.StatsJson) {
    std::cout << obs::runSummary("litmus_explorer").toString() << "\n";
  } else if (Flags.Stats) {
    LitmusService::CacheStats CS = Service.cacheStats();
    obs::MetricsRegistry &Reg = obs::registry();
    uint64_t Lookups = CS.Hits + CS.Misses;
    std::cout << "\nstats: cache " << CS.Hits << " hits / " << CS.Misses
              << " misses";
    if (Lookups)
      std::cout << " (" << (100 * CS.Hits / Lookups) << "% hit rate)";
    std::cout << "\nstats: ";
    CliFlags::printJobWall(std::cout);
    std::cout << "\nstats: solver queries "
              << Reg.counter("solver.queries").value()
              << ", candidates considered "
              << Reg.counter("engine.candidates_considered").value() << "\n";
  }
  return AllOk ? 0 : 1;
}
