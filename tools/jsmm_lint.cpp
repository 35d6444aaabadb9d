//===- tools/jsmm_lint.cpp - Static litmus linter -------------------------===//
///
/// \file
/// Corpus-hygiene front door for the static analysis tier: parse each
/// litmus file, run analysis::classify (and, with --target,
/// analysis::fenceLints on the compiled form), and report the lint
/// diagnostics with their source lines.
///
///   jsmm-lint a.litmus b.litmus           # text diagnostics, exit 1 on any
///   jsmm-lint --format=json *.litmus      # one JSON object per file
///   jsmm-lint --target=armv7 a.litmus     # + redundant-fence lints on the
///                                         #   compiled form (uni fragment)
///
/// Text diagnostics are `file:line: kind: message`. The may-race relation
/// is informational (litmus tests are racy by design): it is reported in
/// the JSON rendering and the per-file summary, but never affects the
/// exit status. Only lint diagnostics do.
///
/// Known findings are pinned with a file-level comment:
///
///   # lint-expect: dead-store duplicate-thread
///
/// Diagnostics of a pinned kind are still printed (marked `[expected]`)
/// but do not fail the run; a pinned kind with no matching diagnostic is
/// itself a finding, so stale pins cannot linger.
///
/// Exit status: 0 no unexpected findings; 1 findings; 2 usage, I/O or
/// parse errors.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalysis.h"
#include "compile/Compile.h"
#include "engine/TargetModel.h"
#include "support/Json.h"
#include "support/Str.h"
#include "tools/LitmusParser.h"

#include <filesystem>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>

using namespace jsmm;

namespace {

int usage() {
  std::cerr
      << "usage: jsmm-lint <file.litmus | directory>... "
         "[--format=text|json] [--target=NAME]\n"
         "  --format=json  one JSON object per file (diagnostics with "
         "kind,\n"
         "                 thread, line, message), instead of "
         "'file:line: kind: message'\n"
         "  --target=NAME  also lint the program compiled for a Thm 6.3 "
         "target\n"
         "                 (redundant-fence; requires the uni-size "
         "fragment)\n"
         "Pin known findings with a '# lint-expect: <kind>...' comment in "
         "the file.\n";
  return 2;
}

const std::vector<analysis::LintKind> &allLintKinds() {
  static const std::vector<analysis::LintKind> Kinds = {
      analysis::LintKind::DeadStore,     analysis::LintKind::UncoveredRead,
      analysis::LintKind::DeadBranch,    analysis::LintKind::DuplicateThread,
      analysis::LintKind::RedundantFence, analysis::LintKind::ConstantRead};
  return Kinds;
}

std::optional<analysis::LintKind> lintKindByName(const std::string &Name) {
  for (analysis::LintKind K : allLintKinds())
    if (Name == analysis::lintKindName(K))
      return K;
  return std::nullopt;
}

/// Scans \p Source for `lint-expect:` comment pins. \returns false with
/// \p Error on an unknown kind token.
bool scanLintExpects(const std::string &Source,
                     std::set<analysis::LintKind> &Expected,
                     std::string &Error) {
  std::istringstream In(Source);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t At = Line.find("lint-expect:");
    if (At == std::string::npos)
      continue;
    std::istringstream Toks(Line.substr(At + 12));
    std::string Tok;
    while (Toks >> Tok) {
      std::optional<analysis::LintKind> K = lintKindByName(Tok);
      if (!K) {
        Error = "line " + std::to_string(LineNo) +
                ": unknown lint-expect kind '" + Tok + "'";
        return false;
      }
      Expected.insert(*K);
    }
  }
  return true;
}

/// One rendered diagnostic of a file.
struct RenderedDiag {
  analysis::LintDiag Diag;
  unsigned Line = 0; ///< 1-based source line, 0 when unmapped
  bool Expected = false;
};

/// Maps a diagnostic to its source line: the statement's pre-order line
/// for statement-level diagnostics, the `thread` directive's line for
/// thread-level ones (PreIdx == -1).
unsigned lineOf(const LitmusFile &File, const analysis::LintDiag &D) {
  if (D.Thread < 0)
    return 0;
  size_t T = static_cast<size_t>(D.Thread);
  if (D.PreIdx < 0)
    return T < File.ThreadLines.size() ? File.ThreadLines[T] : 0;
  size_t I = static_cast<size_t>(D.PreIdx);
  if (T < File.InstrLines.size() && I < File.InstrLines[T].size())
    return File.InstrLines[T][I];
  return 0;
}

/// The linted state of one input file.
struct FileReport {
  std::string Path;
  std::string Name;
  std::string Error; ///< non-empty: I/O or parse failure
  bool StaticallyDrf = false;
  size_t MayRaces = 0;
  std::vector<RenderedDiag> Diags;
  /// Pinned kinds with no matching diagnostic (stale lint-expect pins).
  std::vector<analysis::LintKind> UnfulfilledExpects;

  size_t unexpectedFindings() const {
    size_t N = UnfulfilledExpects.size();
    for (const RenderedDiag &D : Diags)
      if (!D.Expected)
        ++N;
    return N;
  }
};

FileReport lintFile(const std::string &Path, const TargetModel *Target) {
  FileReport Rep;
  Rep.Path = Path;
  std::optional<std::string> Text = readFileText(Path);
  if (!Text) {
    Rep.Error = "cannot read file";
    return Rep;
  }
  std::string Error;
  std::optional<LitmusFile> File = parseLitmus(*Text, &Error);
  if (!File) {
    Rep.Error = Error;
    return Rep;
  }
  Rep.Name = File->P.Name;

  std::set<analysis::LintKind> Expected;
  if (!scanLintExpects(*Text, Expected, Error)) {
    Rep.Error = Error;
    return Rep;
  }

  analysis::StaticClassification C = analysis::classify(File->P);
  Rep.StaticallyDrf = C.StaticallyDrf;
  Rep.MayRaces = C.MayRaces.size();
  for (const analysis::LintDiag &D : C.Lints)
    Rep.Diags.push_back({D, lineOf(*File, D), Expected.count(D.Kind) > 0});

  if (Target) {
    // The source-level lint families above already cover the compiled
    // form's accesses (one-to-one through SourceIdx); only the
    // redundant-fence kind is new information here.
    std::string Why;
    std::optional<UniProgram> Uni = uniFromProgram(File->P, &Why);
    if (!Uni) {
      Rep.Error = "not in the uni-size fragment required by --target: " + Why;
      return Rep;
    }
    for (analysis::LintDiag TD :
         analysis::fenceLints(compileUni(*Uni, Target->arch()))) {
      TD.Message += std::string(" (after compilation for ") + Target->name() +
                    ")";
      // Compiled instructions carry no source positions; anchor at the
      // thread directive.
      unsigned Line = TD.Thread >= 0 && static_cast<size_t>(TD.Thread) <
                                            File->ThreadLines.size()
                          ? File->ThreadLines[TD.Thread]
                          : 0;
      bool Pinned = Expected.count(TD.Kind) > 0;
      Rep.Diags.push_back({std::move(TD), Line, Pinned});
    }
  }

  for (analysis::LintKind K : Expected) {
    bool Seen = false;
    for (const RenderedDiag &D : Rep.Diags)
      Seen |= D.Diag.Kind == K;
    if (!Seen)
      Rep.UnfulfilledExpects.push_back(K);
  }
  return Rep;
}

void printText(const FileReport &Rep) {
  if (!Rep.Error.empty()) {
    std::cerr << "jsmm-lint: " << Rep.Path << ": " << Rep.Error << "\n";
    return;
  }
  for (const RenderedDiag &D : Rep.Diags) {
    std::cout << Rep.Path << ":" << D.Line << ": "
              << analysis::lintKindName(D.Diag.Kind) << ": "
              << D.Diag.Message;
    if (D.Expected)
      std::cout << " [expected]";
    std::cout << "\n";
  }
  for (analysis::LintKind K : Rep.UnfulfilledExpects)
    std::cout << Rep.Path << ":0: lint-expect: no "
              << analysis::lintKindName(K)
              << " diagnostic in this file; remove the stale pin\n";
}

JsonValue jsonOf(const FileReport &Rep) {
  JsonValue Obj = JsonValue::object();
  Obj.set("file", JsonValue(Rep.Path));
  if (!Rep.Error.empty()) {
    Obj.set("status", JsonValue("error"));
    Obj.set("error", JsonValue(Rep.Error));
    return Obj;
  }
  Obj.set("status", JsonValue("ok"));
  Obj.set("name", JsonValue(Rep.Name));
  Obj.set("drf", JsonValue(Rep.StaticallyDrf));
  Obj.set("may_races", JsonValue(static_cast<uint64_t>(Rep.MayRaces)));
  JsonValue Diags = JsonValue::array();
  for (const RenderedDiag &D : Rep.Diags) {
    JsonValue DO = JsonValue::object();
    DO.set("kind", JsonValue(analysis::lintKindName(D.Diag.Kind)));
    DO.set("thread", JsonValue(static_cast<double>(D.Diag.Thread)));
    DO.set("line", JsonValue(static_cast<uint64_t>(D.Line)));
    DO.set("message", JsonValue(D.Diag.Message));
    DO.set("expected", JsonValue(D.Expected));
    Diags.push(std::move(DO));
  }
  Obj.set("diagnostics", std::move(Diags));
  JsonValue Stale = JsonValue::array();
  for (analysis::LintKind K : Rep.UnfulfilledExpects)
    Stale.push(JsonValue(analysis::lintKindName(K)));
  Obj.set("stale_expects", std::move(Stale));
  Obj.set("findings",
          JsonValue(static_cast<uint64_t>(Rep.unexpectedFindings())));
  return Obj;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  bool Json = false;
  const TargetModel *Target = nullptr;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--format=text") {
      Json = false;
    } else if (Arg == "--format=json") {
      Json = true;
    } else if (Arg.rfind("--target=", 0) == 0) {
      std::string Name = Arg.substr(9);
      Target = TargetModel::byName(Name);
      if (!Target) {
        std::cerr << "jsmm-lint: unknown target '" << Name
                  << "'; pick one of:";
        for (const TargetModel &M : TargetModel::all())
          std::cerr << " " << M.name();
        std::cerr << "\n";
        return 2;
      }
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage();
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Paths.empty())
    return usage();

  // Expand directories to their .litmus files, sorted (same contract as
  // jsmm-batch's directory inputs).
  std::vector<std::string> Files;
  for (const std::string &Path : Paths) {
    std::error_code Ec;
    if (!std::filesystem::is_directory(Path, Ec)) {
      Files.push_back(Path);
      continue;
    }
    std::vector<std::string> Found;
    std::filesystem::directory_iterator It(Path, Ec);
    if (Ec) {
      std::cerr << "jsmm-lint: cannot list '" << Path
                << "': " << Ec.message() << "\n";
      return 2;
    }
    for (std::filesystem::directory_iterator End; It != End;
         It.increment(Ec)) {
      if (Ec) {
        std::cerr << "jsmm-lint: error listing '" << Path
                  << "': " << Ec.message() << "\n";
        return 2;
      }
      if (It->path().extension() == ".litmus")
        Found.push_back(It->path().string());
    }
    if (Found.empty()) {
      std::cerr << "jsmm-lint: no .litmus files in '" << Path << "'\n";
      return 2;
    }
    std::sort(Found.begin(), Found.end());
    Files.insert(Files.end(), Found.begin(), Found.end());
  }

  size_t Errors = 0, Findings = 0, Expected = 0;
  for (const std::string &Path : Files) {
    FileReport Rep = lintFile(Path, Target);
    if (Json)
      std::cout << jsonOf(Rep).toString() << "\n";
    else
      printText(Rep);
    if (!Rep.Error.empty()) {
      if (Json) // text mode already printed the error to stderr
        std::cerr << "jsmm-lint: " << Rep.Path << ": " << Rep.Error << "\n";
      ++Errors;
      continue;
    }
    Findings += Rep.unexpectedFindings();
    for (const RenderedDiag &D : Rep.Diags)
      Expected += D.Expected ? 1 : 0;
  }
  std::cerr << "jsmm-lint: " << Files.size() << " files, " << Findings
            << " findings";
  if (Expected)
    std::cerr << " (+" << Expected << " expected)";
  if (Errors)
    std::cerr << ", " << Errors << " errors";
  std::cerr << "\n";
  if (Errors)
    return 2;
  return Findings ? 1 : 0;
}
