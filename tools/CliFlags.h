//===- tools/CliFlags.h - Flags shared by every front door -----*- C++ -*-===//
///
/// \file
/// The flags jsmm-run, jsmm-batch and example_litmus_explorer share, parsed
/// in one place (see CliFlags::Help), plus the telemetry plumbing behind
/// them: --stats enables the obs metrics, --trace opens and installs the
/// JSONL trace sink. Tool-specific flags stay in their tools.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TOOLS_CLIFLAGS_H
#define JSMM_TOOLS_CLIFLAGS_H

#include "obs/Obs.h"
#include "solver/TotSolver.h"
#include "support/Str.h"

#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace jsmm {

struct CliFlags {
  static constexpr const char *Help =
      "  --threads=N    engine threads per job (default 1; 0 = hardware)\n"
      "  --solver=brute|propagate   tot-order solver (default: propagate)\n"
      "  --reduce=on|off   equivalence-aware enumeration (default: on)\n"
      "  --no-static    disable the static pre-analysis and DRF-SC fast "
      "path\n"
      "                 (verdicts are identical under either flag)\n"
      "  --stats        telemetry summary (the tool's own format)\n"
      "  --stats=json   the summary as one 'run-summary' JSON record\n"
      "  --trace=FILE   append JSONL trace events to FILE\n";

  explicit CliFlags(const char *Tool) : Tool(Tool) {}
  /// Uninstalls the trace sink before it closes.
  ~CliFlags() {
    if (Trace)
      obs::setTrace(nullptr);
  }
  CliFlags(const CliFlags &) = delete;
  CliFlags &operator=(const CliFlags &) = delete;

  const char *Tool; ///< prefix of every diagnostic
  unsigned Threads = 1;
  bool Reduce = true;
  bool Static = true;
  bool Stats = false;
  bool StatsJson = false;
  std::string TracePath;

  /// Consumes the shared flags of Argv[1..Argc) and hands every other
  /// argument, in order, to \p Rest. --solver sets the process default
  /// solver. \returns false, with a diagnostic on stderr, on a malformed
  /// shared flag.
  bool parse(int Argc, char **Argv, std::vector<std::string> &Rest) {
    for (int I = 1; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg.rfind("--threads=", 0) == 0) {
        std::optional<unsigned> N =
            parseThreadCount(Tool, "--threads", Arg.substr(10));
        if (!N)
          return false;
        Threads = *N;
      } else if (Arg.rfind("--solver=", 0) == 0) {
        std::optional<SolverKind> Kind = solverKindByName(Arg.substr(9));
        if (!Kind)
          return fail("unknown solver '" + Arg.substr(9) +
                      "'; pick 'brute' or 'propagate'");
        setDefaultSolverKind(*Kind);
      } else if (Arg.rfind("--reduce=", 0) == 0) {
        std::string Val = Arg.substr(9);
        if (Val != "on" && Val != "off")
          return fail("--reduce takes 'on' or 'off', not '" + Val + "'");
        Reduce = Val == "on";
      } else if (Arg == "--no-static") {
        Static = false;
      } else if (Arg == "--stats" || Arg == "--stats=json") {
        Stats = true;
        StatsJson |= Arg == "--stats=json";
      } else if (Arg.rfind("--trace=", 0) == 0) {
        TracePath = Arg.substr(8);
        if (TracePath.empty())
          return fail("--trace needs a file path");
      } else {
        Rest.push_back(Arg);
      }
    }
    return true;
  }

  /// Enables the metrics under --stats and installs the --trace sink.
  /// \returns false, with a diagnostic, if the trace file cannot be opened.
  bool start() {
    if (Stats)
      obs::setMetricsEnabled(true);
    if (TracePath.empty())
      return true;
    std::string Error;
    Trace = obs::TraceSink::open(TracePath, &Error);
    if (!Trace)
      return fail(Error);
    obs::setTrace(Trace.get());
    return true;
  }

  /// Prints "job wall p50 A us, p90 B us, p99 C us, max D us" from the
  /// service's per-job wall-time histogram.
  static void printJobWall(std::ostream &Out) {
    obs::LatencyHistogram &H =
        obs::registry().histogram("service.job_wall_us");
    Out << "job wall p50 " << H.percentileMicros(50) << " us, p90 "
        << H.percentileMicros(90) << " us, p99 " << H.percentileMicros(99)
        << " us, max " << H.maxMicros() << " us";
  }

private:
  bool fail(const std::string &Why) const {
    std::cerr << Tool << ": " << Why << "\n";
    return false;
  }

  std::unique_ptr<obs::TraceSink> Trace;
};

} // namespace jsmm

#endif // JSMM_TOOLS_CLIFLAGS_H
