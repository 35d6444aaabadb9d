//===- perfbench/src/Workloads.cpp ----------------------------------------===//

#include "Workloads.h"

#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "targets/TargetCompile.h"
#include "targets/UniProgram.h"

#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

using namespace jsmm;

namespace perfbench {

std::optional<Workload> workloadByName(const std::string &Name) {
  if (Name == "corpus")
    return Workload::Corpus;
  if (Name == "gen-racy")
    return Workload::GenRacy;
  if (Name == "large")
    return Workload::Large;
  if (Name == "search")
    return Workload::Search;
  return std::nullopt;
}

namespace {

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  size_t E = S.find_last_not_of(" \t\r");
  return B == std::string::npos ? "" : S.substr(B, E - B + 1);
}

std::vector<std::string> splitOn(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  std::stringstream In(S);
  std::string Part;
  while (std::getline(In, Part, Sep))
    Out.push_back(trim(Part));
  return Out;
}

/// Golden rows of fixtures/golden_verdicts.txt: case -> (weak outcome,
/// column -> allowed).
struct GoldenRow {
  std::string Weak;
  std::map<std::string, bool> Allowed;
};

std::map<std::string, GoldenRow> loadGolden(const std::string &FixtureDir) {
  std::string Path = FixtureDir + "/golden_verdicts.txt";
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::vector<std::string> Columns;
  std::map<std::string, GoldenRow> Rows;
  std::string Line;
  while (std::getline(In, Line)) {
    if (trim(Line).empty() || trim(Line)[0] == '#')
      continue;
    std::vector<std::string> F = splitOn(Line, '|');
    if (F.size() == 2 && F[0] == "columns") {
      std::stringstream Names(F[1]);
      for (std::string C; Names >> C;)
        Columns.push_back(C);
      continue;
    }
    if (F.size() != 3 || Columns.empty())
      throw std::runtime_error(Path + ": malformed line '" + Line + "'");
    GoldenRow Row;
    Row.Weak = F[1];
    size_t Col = 0;
    for (char C : F[2]) {
      if (C != 'A' && C != 'F')
        continue;
      if (Col == Columns.size())
        throw std::runtime_error(Path + ": too many verdicts for " + F[0]);
      Row.Allowed[Columns[Col++]] = C == 'A';
    }
    if (Col != Columns.size())
      throw std::runtime_error(Path + ": too few verdicts for " + F[0]);
    Rows[F[0]] = std::move(Row);
  }
  return Rows;
}

/// Corpus jobs checked against their golden rows and allow/forbid lines.
std::vector<BenchJob> goldenJobs(const std::vector<LitmusJob> &Jobs,
                                 const std::map<std::string, GoldenRow> &Gold,
                                 bool RequireArm) {
  std::vector<BenchJob> Out;
  for (const LitmusJob &J : Jobs) {
    auto It = Gold.find(J.Name);
    if (It == Gold.end())
      throw std::runtime_error("no golden verdict row for " + J.Name);
    BenchJob B;
    B.Job = J;
    B.Ref.WeakOutcome = It->second.Weak;
    B.Ref.WeakAllowed = It->second.Allowed;
    std::optional<LitmusFile> File = parseLitmus(J.Litmus);
    if (!File)
      throw std::runtime_error("corpus job " + J.Name + " does not parse");
    for (const LitmusExpectation &E : File->Expectations)
      B.Ref.Expectations.emplace_back(E.O.toString(), E.Allowed);
    for (const auto &[Col, Allowed] : B.Ref.WeakAllowed) {
      (void)Allowed;
      B.Ref.Required.push_back(Col);
    }
    if (RequireArm)
      B.Ref.Required.push_back("armv8");
    Out.push_back(std::move(B));
  }
  return Out;
}

/// One statement of a generated program: an access, optionally guarded
/// by `if rN == v` on an earlier read of its thread.
struct GenStmt {
  enum Kind { Store, Load, Exchange } K = Store;
  unsigned Width = 1;
  unsigned Offset = 0;
  bool Sc = false; ///< exchanges are SeqCst whatever this says
  uint64_t Value = 0;
  int CondReg = -1; ///< guard register, -1 when unguarded
  unsigned CondValue = 0;
  bool writes() const { return K != Load; }
  bool reads() const { return K != Store; }
};

using GenThread = std::vector<GenStmt>;

/// An upper bound on a program's reads-byte-from choices: the product,
/// over every byte every read covers, of the writes covering that byte
/// plus the initial value. A structural property of the text, so the
/// inputs a seed yields never depend on the code under test.
uint64_t rbfChoiceBound(const std::vector<GenThread> &Threads) {
  uint64_t Bound = 1;
  for (const GenThread &T : Threads)
    for (const GenStmt &R : T) {
      if (!R.reads())
        continue;
      for (unsigned B = R.Offset; B < R.Offset + R.Width; ++B) {
        uint64_t Writers = 1;
        for (const GenThread &U : Threads)
          for (const GenStmt &W : U)
            Writers += &W != &R && W.writes() && W.Offset <= B &&
                       B < W.Offset + W.Width;
        Bound *= Writers;
      }
    }
  return Bound;
}

unsigned scAccesses(const std::vector<GenThread> &Threads) {
  unsigned N = 0;
  for (const GenThread &T : Threads)
    for (const GenStmt &S : T)
      N += S.Sc || S.K == GenStmt::Exchange;
  return N;
}

std::string renderAccess(const GenStmt &S) {
  return "u" + std::to_string(8 * S.Width) + " " + std::to_string(S.Offset);
}

/// Caps of the generator. Job cost grows with the read-from choices and,
/// through the tot search, with the SeqCst accesses; without caps a few
/// programs take seconds and dominate a run, and the exhaustive reference
/// of a single one can take minutes.
constexpr uint64_t MaxRbfChoices = 2048;
constexpr unsigned MaxScAccesses = 4;

/// A program at the read-from cap whose 2048 choices are all valid JS
/// candidates, drawn once by this generator (seed 13). A job's peak memory
/// grows with its valid candidates, about 8 KB each, so without this
/// program a run's peak RSS was set by the heaviest program its seed drew
/// (2-33 MB per job over seeds 1-100, under a cap of 4096). Every gen-racy
/// population carries it, and no generated program has more valid
/// candidates than the cap, so every run's peak is this program's.
const char *const MemoryAnchor = R"(buffer 8
thread
  r0 = exchange u16 0 = 257
  if r0 == 0
    r1 = exchange u16 2 = 257
  end
thread
  r0 = load u8 3
  r1 = load u32 0
thread
  r0 = load u32 0
  if r0 == 1
    r1 = exchange u8 7 = 2
  end
  r2 = load u16 2
)";

/// One racy mixed-size program: 2 or 3 threads of 2-4 statements over an
/// 8-byte buffer; u8/u16/u32 accesses concentrated on the low word so they
/// overlap; SeqCst accesses, exchanges and branches; a nonzero `init` on a
/// third of the programs. Draws are repeated until the program is within
/// the caps above and its read-from bound lies in (\p MinRbf, \p MaxRbf].
/// The caller fixes the thread count and the bound's band per program, so
/// every population holds the same mix of sizes and cost classes and its
/// mean job cost varies little from seed to seed.
std::string generateRacyProgram(std::mt19937_64 &Rng, const std::string &Name,
                                unsigned NumThreads, uint64_t MinRbf,
                                uint64_t MaxRbf) {
  auto Pick = [&Rng](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  std::vector<GenThread> Threads;
  auto WithinCaps = [&Threads, MinRbf, MaxRbf] {
    uint64_t Bound = rbfChoiceBound(Threads);
    return Bound > MinRbf && Bound <= MaxRbf &&
           scAccesses(Threads) <= MaxScAccesses;
  };
  do {
    Threads.assign(NumThreads, GenThread());
    for (GenThread &T : Threads) {
      unsigned Stmts = 2 + Pick(Threads.size() == 2 ? 3 : 2);
      int Regs = 0;
      // Guards test only registers every path assigns: the configurations
      // disagree on branches over a register assigned under another
      // branch, which is outside what this workload measures.
      std::vector<int> Assigned;
      for (unsigned I = 0; I < Stmts; ++I) {
        GenStmt S;
        unsigned K = Pick(20);
        S.K = K < 8    ? GenStmt::Store
              : K < 16 ? GenStmt::Load
                       : GenStmt::Exchange;
        unsigned W = Pick(20);
        bool Low = Pick(4) != 0;
        S.Width = W < 9 ? 1 : W < 16 ? 2 : 4;
        S.Offset = (Low ? 0 : 4) + S.Width * Pick(4 / S.Width);
        S.Sc = Pick(4) == 0;
        static const uint64_t WideValues[] = {1, 2, 257};
        S.Value = S.Width == 1 ? 1 + Pick(2) : WideValues[Pick(3)];
        if (!Assigned.empty() && Pick(6) == 0) {
          S.CondReg = Assigned[Pick(static_cast<unsigned>(Assigned.size()))];
          S.CondValue = Pick(2);
        }
        if (S.reads() && S.CondReg < 0)
          Assigned.push_back(Regs);
        Regs += S.reads();
        T.push_back(S);
      }
    }
  } while (!WithinCaps());

  std::string Src = "name " + Name + "\nbuffer 8\n";
  static const char *Inits[] = {"init u16 0 = 257", "init u8 1 = 2",
                                "init u32 4 = 65793"};
  if (Pick(3) == 0)
    Src += std::string(Inits[Pick(3)]) + "\n";
  for (const GenThread &T : Threads) {
    Src += "thread\n";
    unsigned Reg = 0;
    for (const GenStmt &S : T) {
      std::string Indent = "  ";
      if (S.CondReg >= 0) {
        Src += "  if r" + std::to_string(S.CondReg) + " == " +
               std::to_string(S.CondValue) + "\n";
        Indent = "    ";
      }
      std::string Value = std::to_string(S.Value);
      switch (S.K) {
      case GenStmt::Store:
        Src += Indent + (S.Sc ? "store.sc " : "store ") + renderAccess(S) +
               " = " + Value + "\n";
        break;
      case GenStmt::Load:
        Src += Indent + "r" + std::to_string(Reg++) +
               (S.Sc ? " = load.sc " : " = load ") + renderAccess(S) + "\n";
        break;
      case GenStmt::Exchange:
        Src += Indent + "r" + std::to_string(Reg++) + " = exchange " +
               renderAccess(S) + " = " + Value + "\n";
        break;
      }
      if (S.CondReg >= 0)
        Src += "  end\n";
    }
  }
  return Src;
}

/// A racy two-thread u32 core (SB, MP or LB shape) with seeded values.
std::string racyCore(unsigned Shape, unsigned V0, unsigned V1) {
  std::string A = std::to_string(V0), B = std::to_string(V1);
  switch (Shape) {
  case 0: // SB
    return "thread\n  store u32 0 = " + A + "\n  r0 = load u32 4\n" +
           "thread\n  store u32 4 = " + B + "\n  r0 = load u32 0\n";
  case 1: // MP
    return "thread\n  store u32 0 = " + A + "\n  store u32 4 = " + B + "\n" +
           "thread\n  r0 = load u32 4\n  r1 = load u32 0\n";
  default: // LB
    return "thread\n  r0 = load u32 0\n  store u32 4 = " + A + "\n" +
           "thread\n  r0 = load u32 4\n  store u32 0 = " + B + "\n";
  }
}

/// The core padded with \p Fillers never-read u32 stores of seeded values,
/// each to its own cell, three to a filler thread: 5 + Fillers events,
/// uni-size so every target column is served, racy so the DRF fast path
/// cannot bypass the core. The layout is fixed so the cost is too.
std::string wideProgram(std::mt19937_64 &Rng, const std::string &Name,
                        const std::string &Core, unsigned Fillers) {
  std::string S = "name " + Name + "\nbuffer " +
                  std::to_string(8 + 4 * Fillers) + "\n" + Core;
  for (unsigned F = 0; F < Fillers;) {
    unsigned Run = std::min<unsigned>(3, Fillers - F);
    S += "thread\n";
    for (unsigned K = 0; K < Run; ++K, ++F)
      S += "  store u32 " + std::to_string(8 + 4 * F) + " = " +
           std::to_string(1 + Rng() % 255) + "\n";
  }
  return S;
}

/// The exhaustive configuration: no pruning, no reduction, no static tier,
/// brute-force tot solver.
const ExecutionEngine &exhaustiveEngine() {
  static const ExecutionEngine E(EngineConfig::seedCompatible());
  return E;
}

std::vector<std::string> exhaustiveJsColumn(const Program &P,
                                            const ModelSpec &Spec) {
  return exhaustiveEngine()
      .enumerateOutcomes(P, JsModel(Spec, SolverConfig::brute()))
      .outcomeStrings();
}

/// Every column of the differential table of a small program under the
/// exhaustive configuration (uni-js through the engine-independent
/// uni-size enumerator).
Table exhaustiveTable(const Program &P) {
  Table T;
  T["js-original"] = exhaustiveJsColumn(P, ModelSpec::original());
  T["js-revised"] = exhaustiveJsColumn(P, ModelSpec::revised());
  if (!P.hasNonZeroInit()) {
    CompiledProgram CP = compileToArm(P);
    if (!ExecutionEngine::capacityError(CP.Arm))
      for (const auto &[O, W] :
           exhaustiveEngine().enumerate(CP.Arm, Armv8Model()).Allowed) {
        (void)W;
        T["armv8"].push_back(O.toString());
      }
  }
  std::optional<UniProgram> Uni = uniFromProgram(P);
  if (!Uni)
    throw std::runtime_error("core program is not uni-size");
  for (const Outcome &O : uniAllowedOutcomes(*Uni))
    T["uni-js"].push_back(O.toString());
  for (const TargetModel &M : TargetModel::all())
    T[M.name()] = exhaustiveEngine()
                      .enumerateOutcomes(compileUni(*Uni, M.arch()), M)
                      .outcomeStrings();
  return T;
}

Program parsedProgram(const std::string &Litmus) {
  std::string Error;
  std::optional<LitmusFile> F = parseLitmus(Litmus, &Error);
  if (!F)
    throw std::runtime_error("generated program does not parse: " + Error);
  return F->P;
}

/// The search sweep: kind x model x bound, cheapest first (the warm-up
/// round runs a prefix). Seven searches, each a few to a few hundred ms and
/// no two of similar cost, so a run's median falls inside one search's
/// cluster of samples instead of between two.
std::vector<SearchJob> searchSweep() {
  auto Cfg = [](unsigned MaxEvents, unsigned Locs, const ModelSpec &Js) {
    SearchConfig C;
    C.MinEvents = 2;
    C.MaxEvents = MaxEvents;
    C.NumLocs = Locs;
    C.Js = Js;
    C.Threads = 1;
    return C;
  };
  std::vector<SearchJob> Out;
  // §5.4: the 4-event / 1-location SC-DRF counter-example (Fig. 8).
  Out.push_back({"scdrf-original-5ev", SearchKind::ScDrfCex,
                 Cfg(5, 2, ModelSpec::original()), true, 4, 1});
  // §5.2 with exact deadness: the 4-event Init-synchronisation example.
  Out.push_back({"compile-original-4ev-exact", SearchKind::CompileCex,
                 Cfg(4, 2, ModelSpec::original()), true, 4, 0});
  // §5.3: the revised model's bounded compilation check holds.
  Out.push_back({"bounded-revised-4ev-1loc", SearchKind::Bounded,
                 Cfg(4, 1, ModelSpec::revised()), false, 0, 0});
  // §5.2 modulo Init synchronisation: no counter-example below 6 events.
  SearchJob NoInit{"compile-original-4ev-noinit", SearchKind::CompileCex,
                   Cfg(4, 2, ModelSpec::original()), false, 0, 0};
  NoInit.Cfg.ExcludeInitSynchronization = true;
  Out.push_back(NoInit);
  // §5.4: the revised model admits no SC-DRF counter-example.
  Out.push_back({"scdrf-revised-5ev-1loc", SearchKind::ScDrfCex,
                 Cfg(5, 1, ModelSpec::revised()), false, 0, 0});
  // §5.2/5.3: no compilation counter-example for the revised model.
  Out.push_back({"compile-revised-4ev", SearchKind::CompileCex,
                 Cfg(4, 2, ModelSpec::revised()), false, 0, 0});
  Out.push_back({"bounded-revised-4ev-2loc", SearchKind::Bounded,
                 Cfg(4, 2, ModelSpec::revised()), false, 0, 0});
  return Out;
}

} // namespace

WorkloadInputs makeInputs(Workload W, uint64_t Seed,
                          const std::string &FixtureDir) {
  std::mt19937_64 Rng(Seed);
  WorkloadInputs In;
  switch (W) {
  case Workload::Corpus:
    In.Jobs = goldenJobs(differentialCorpusJobs(), loadGolden(FixtureDir),
                         /*RequireArm=*/true);
    In.WarmupCount = In.Jobs.size();
    break;
  case Workload::GenRacy: {
    auto AddProgram = [&In](const std::string &Name, const std::string &Src) {
      for (const char *Model : {"original", "revised"}) {
        BenchJob B;
        B.Job.Name = Name;
        B.Job.Litmus = Src;
        B.Job.Model = Model;
        B.Ref.Deferred = true;
        B.Ref.Required = {Model};
        In.Jobs.push_back(std::move(B));
      }
    };
    // The memory anchor first, so the warm-up round, which runs on another
    // thread than the clients, reaches the same peak whatever the seed;
    // then six strata (two thread counts x three read-from bands), cycled.
    AddProgram("gen-anchor", std::string("name gen-anchor\n") + MemoryAnchor);
    constexpr unsigned Programs = 2004;
    const uint64_t Bands[] = {0, 16, 256, MaxRbfChoices};
    for (unsigned I = 0; I < Programs; ++I) {
      unsigned Band = I / 2 % 3;
      std::string Name =
          "gen-" + std::to_string(Seed) + "-" + std::to_string(I);
      AddProgram(Name, generateRacyProgram(Rng, Name, 2 + I % 2, Bands[Band],
                                           Bands[Band + 1]));
    }
    In.WarmupCount = 600;
    break;
  }
  case Workload::Large: {
    In.Jobs = goldenJobs(largeCorpusJobs(), loadGolden(FixtureDir),
                         /*RequireArm=*/false);
    // Four sizes: two served by the heap relation tier with the
    // propagation solver (65..256 events), two past SatThreshold by the
    // SAT tier. Shapes are fixed per size so a seed changes values and
    // thread layout, not the cost class.
    struct Slot {
      unsigned Shape, Fillers;
    };
    for (Slot S : {Slot{2, 96}, Slot{1, 192}, Slot{0, 376}, Slot{0, 496}}) {
      std::string Core = racyCore(S.Shape, 1 + Rng() % 3, 1 + Rng() % 3);
      std::string Name = "wide-" + std::to_string(5 + S.Fillers);
      BenchJob B;
      B.Job.Name = Name;
      B.Job.Model = "differential";
      B.Job.Litmus = wideProgram(Rng, Name, Core, S.Fillers);
      B.Ref.Columns = exhaustiveTable(
          parsedProgram("name core\nbuffer 8\n" + Core));
      for (const auto &[Col, Outcomes] : B.Ref.Columns) {
        (void)Outcomes;
        if (Col != "armv8")
          B.Ref.Required.push_back(Col);
      }
      In.Jobs.push_back(std::move(B));
    }
    In.WarmupCount = In.Jobs.size();
    break;
  }
  case Workload::Search:
    In.Searches = searchSweep();
    In.WarmupCount = 4;
    break;
  }
  return In;
}

void computeDeferredReference(BenchJob &J) {
  Program P = parsedProgram(J.Job.Litmus);
  const std::string &M = J.Job.Model;
  J.Ref.Columns[M] = exhaustiveJsColumn(
      P, M == "original" ? ModelSpec::original() : ModelSpec::revised());
  J.Ref.Deferred = false;
}

std::string checkResult(const LitmusJobResult &R, const JobReference &Ref) {
  if (!R.ok())
    return std::string("status ") + jobStatusName(R.Status) + ": " + R.Error;
  if (!R.SoundnessViolations.empty())
    return "soundness violation " + R.SoundnessViolations.front();
  for (const std::string &Col : Ref.Required)
    if (!R.AllowedByBackend.count(Col))
      return "missing column " + Col;
  for (const auto &[Col, Allowed] : R.AllowedByBackend) {
    if (Ref.Columns.empty())
      break;
    auto It = Ref.Columns.find(Col);
    if (It == Ref.Columns.end())
      return "unexpected column " + Col;
    if (It->second != Allowed)
      return "column " + Col + " differs from the exhaustive reference";
  }
  for (const auto &[Col, Want] : Ref.WeakAllowed)
    if (R.allows(Col, Ref.WeakOutcome) != Want)
      return "column " + Col + (Want ? " forbids " : " allows ") +
             Ref.WeakOutcome + " (golden: " + (Want ? "allow" : "forbid") +
             ")";
  for (const auto &[O, Want] : Ref.Expectations)
    if (R.allows("js-revised", O) != Want)
      return std::string(Want ? "allow " : "forbid ") + O +
             " does not hold on js-revised";
  return "";
}

std::string checkTableBytes(const std::string &Table, const JobReference &Ref) {
  LitmusJobResult Expected;
  Expected.AllowedByBackend = Ref.Columns;
  return Table == tableBytes(Expected)
             ? ""
             : "table differs from the exhaustive reference";
}

std::string tableBytes(const LitmusJobResult &R) {
  std::string Out = std::string(jobStatusName(R.Status)) + "\n";
  for (const auto &[Col, Allowed] : R.AllowedByBackend) {
    Out += Col + ":";
    for (const std::string &O : Allowed)
      Out += " [" + O + "]";
    Out += "\n";
  }
  for (const std::string &V : R.SoundnessViolations)
    Out += "unsound " + V + "\n";
  for (const std::string &V : R.ObservableWeakenings)
    Out += "weakening " + V + "\n";
  for (const ExpectationResult &E : R.Expectations)
    Out += std::string(E.Allowed ? "allow " : "forbid ") + E.Outcome +
           (E.Observed ? " observed\n" : " unobserved\n");
  return Out;
}

SearchAnswer runSearch(const SearchJob &S) {
  SearchAnswer A;
  if (S.Kind == SearchKind::Bounded) {
    BoundedCompilationReport R = boundedCompilationCheck(S.Cfg);
    A.Found = !R.holds();
    A.Skeletons = R.Skeletons;
    A.RbfCandidates = R.RbfCandidates;
    A.ArmChecks = R.ArmConsistentExecutions;
    return A;
  }
  SearchStats Stats;
  std::optional<SkeletonCex> Cex = S.Kind == SearchKind::CompileCex
                                       ? searchArmCompilationCex(S.Cfg, &Stats)
                                       : searchScDrfCex(S.Cfg, &Stats);
  A.Found = Cex.has_value();
  if (Cex) {
    A.Events = Cex->NumEvents;
    A.Locs = Cex->NumLocs;
  }
  A.Skeletons = Stats.Skeletons;
  A.RbfCandidates = Stats.RbfCandidates;
  A.ArmChecks = Stats.ArmConsistencyChecks;
  return A;
}

std::string checkSearch(const SearchAnswer &A, const SearchJob &S) {
  if (A.Found != S.ExpectFound)
    return S.Name + (A.Found ? ": unexpected counter-example"
                             : ": expected counter-example not found");
  if (S.ExpectEvents && A.Events != S.ExpectEvents)
    return S.Name + ": counter-example has " + std::to_string(A.Events) +
           " events, the paper's has " + std::to_string(S.ExpectEvents);
  if (S.ExpectLocs && A.Locs != S.ExpectLocs)
    return S.Name + ": counter-example has " + std::to_string(A.Locs) +
           " locations, the paper's has " + std::to_string(S.ExpectLocs);
  return "";
}

} // namespace perfbench
