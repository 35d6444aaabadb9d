//===- perfbench/src/Tracing.cpp ------------------------------------------===//

#include "Tracing.h"

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/StaticValues.h"
#include "compile/Compile.h"
#include "engine/ExecutionEngine.h"
#include "support/CapacityError.h"
#include "support/Json.h"
#include "targets/TargetCompile.h"
#include "targets/UniProgram.h"

#include <fstream>
#include <set>
#include <stdexcept>

using namespace jsmm;

namespace perfbench {

int64_t SpanLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

size_t SpanLog::open(const char *Name, uint32_t Job) {
  Span S;
  S.Name = Name;
  S.Job = Job;
  S.Parent = OpenStack.empty() ? -1 : static_cast<int32_t>(OpenStack.back());
  S.StartNs = nowNs();
  Spans.push_back(S);
  OpenStack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanLog::close(size_t Index) {
  Spans[Index].EndNs = nowNs();
  OpenStack.pop_back();
}

void LayerCounts::add(const LayerCounts &O) {
  DrfJobs += O.DrfJobs;
  JsCandidates += O.JsCandidates;
  JsValid += O.JsValid;
  PrunedSubtrees += O.PrunedSubtrees;
  SleptBranches += O.SleptBranches;
  StaticRfPruned += O.StaticRfPruned;
  StaticPathsPruned += O.StaticPathsPruned;
  DynColumns += O.DynColumns;
  ArmCandidates += O.ArmCandidates;
  ArmConsistent += O.ArmConsistent;
  ArmOmitted += O.ArmOmitted;
  TargetCandidates += O.TargetCandidates;
  SolverQueries += O.SolverQueries;
  PropagateBranches += O.PropagateBranches;
  SatDecisions += O.SatDecisions;
  SatConflicts += O.SatConflicts;
  SatColumns += O.SatColumns;
  Skeletons += O.Skeletons;
  RbfCandidates += O.RbfCandidates;
  ArmChecks += O.ArmChecks;
}

namespace {

/// Installs a fresh solver-activity sink for one column and folds its
/// snapshot into the counts when the column is done (or throws).
class ColumnSink {
public:
  explicit ColumnSink(LayerCounts &C)
      : C(C), Prev(setCurrentSolverActivitySink(&Sink)) {}
  ColumnSink(const ColumnSink &) = delete;
  ColumnSink &operator=(const ColumnSink &) = delete;
  ~ColumnSink() {
    setCurrentSolverActivitySink(Prev);
    SolverActivity A = Sink.snapshot();
    C.SolverQueries += A.Queries;
    C.PropagateBranches += A.PropagateBranches;
    C.SatDecisions += A.SatDecisions;
    C.SatConflicts += A.SatConflicts;
  }

private:
  LayerCounts &C;
  SolverActivitySink Sink;
  SolverActivitySink *Prev;
};

/// Counters every engine-served column contributes.
void countEngineColumn(const OutcomeSummary &S, const ExecutionEngine &E,
                       LayerCounts &C) {
  C.StaticRfPruned += E.Stats.StaticRfPruned;
  C.StaticPathsPruned += E.Stats.StaticPathsPruned;
  C.DynColumns += S.Tier == "dyn";
  C.SatColumns += S.SolverUsed == SolverKind::Sat;
}

std::vector<std::string> jsColumn(const Program &P, const ModelSpec &Spec,
                                  const char *SpanName, uint32_t Id,
                                  const ExecutionEngine &E, SpanLog &Log,
                                  LayerCounts &C, OutcomeSummary *Out) {
  OutcomeSummary S;
  {
    SpanScope Scope(Log, SpanName, Id);
    ColumnSink Sink(C);
    S = E.enumerateOutcomes(P, JsModel(Spec));
  }
  C.JsCandidates += S.CandidatesConsidered;
  C.JsValid += S.ValidCandidates;
  C.PrunedSubtrees += E.Stats.PrunedSubtrees;
  C.SleptBranches += E.Stats.SleptBranches;
  countEngineColumn(S, E, C);
  std::vector<std::string> Strings = S.outcomeStrings();
  if (Out)
    *Out = std::move(S);
  return Strings;
}

/// "targets.<backend>" span names with stable storage.
const char *targetSpanName(const TargetModel &M) {
  static const std::map<std::string, std::string> Names = [] {
    std::map<std::string, std::string> N;
    for (const TargetModel &T : TargetModel::all())
      N[T.name()] = std::string("targets.") + T.name();
    return N;
  }();
  return Names.at(M.name()).c_str();
}

/// runDifferentialTable of LitmusService.cpp, call for call.
void differentialTable(const LitmusFile &File, const ExecutionEngine &E,
                       bool StaticallyDrf, uint32_t Id, SpanLog &Log,
                       LayerCounts &C, LitmusJobResult &R) {
  if (StaticallyDrf) {
    std::vector<std::string> Allowed;
    {
      SpanScope Scope(Log, "analysis.sc_enum", Id);
      uint64_t States = 0;
      for (const Outcome &O : analysis::enumerateScOutcomes(File.P, &States))
        Allowed.push_back(O.toString());
    }
    R.AllowedByBackend["js-original"] = Allowed;
    R.AllowedByBackend["js-revised"] = Allowed;
    bool ArmFits = false;
    if (!File.P.hasNonZeroInit()) {
      SpanScope Scope(Log, "compile.arm", Id);
      ArmFits = !ExecutionEngine::capacityError(compileToArm(File.P).Arm);
    }
    if (ArmFits)
      R.AllowedByBackend["armv8"] = Allowed;
    else
      ++C.ArmOmitted;
    bool Uni = false;
    {
      SpanScope Scope(Log, "compile.target", Id);
      Uni = uniFromProgram(File.P).has_value();
    }
    if (Uni) {
      R.AllowedByBackend["uni-js"] = Allowed;
      for (const TargetModel &M : TargetModel::all())
        R.AllowedByBackend[M.name()] = Allowed;
    }
    R.DrfFastPath = true;
    return;
  }

  R.AllowedByBackend["js-original"] =
      jsColumn(File.P, ModelSpec::original(), "engine.js_original", Id, E, Log,
               C, nullptr);
  R.AllowedByBackend["js-revised"] = jsColumn(
      File.P, ModelSpec::revised(), "engine.js_revised", Id, E, Log, C, nullptr);
  bool ArmColumn = false;
  if (!File.P.hasNonZeroInit()) {
    std::optional<CompiledProgram> CP;
    {
      SpanScope Scope(Log, "compile.arm", Id);
      CP = compileToArm(File.P);
      if (ExecutionEngine::capacityError(CP->Arm))
        CP.reset();
    }
    if (CP) {
      ArmColumn = true;
      ArmEnumerationResult AR;
      {
        SpanScope Scope(Log, "armv8.enumerate", Id);
        AR = E.enumerate(CP->Arm, Armv8Model());
      }
      C.ArmCandidates += AR.CandidatesConsidered;
      C.ArmConsistent += AR.ConsistentCandidates;
      std::vector<std::string> &Col = R.AllowedByBackend["armv8"];
      for (const auto &[O, W] : AR.Allowed) {
        (void)W;
        Col.push_back(O.toString());
      }
    }
  }
  C.ArmOmitted += !ArmColumn;

  std::optional<UniProgram> Uni;
  {
    SpanScope Scope(Log, "compile.target", Id);
    Uni = uniFromProgram(File.P);
  }
  if (!Uni)
    return;

  std::vector<std::string> UniAllowed;
  {
    SpanScope Scope(Log, "unisize.uni_js", Id);
    for (const Outcome &O : uniAllowedOutcomes(*Uni))
      UniAllowed.push_back(O.toString());
  }
  std::set<std::string> UniSet(UniAllowed.begin(), UniAllowed.end());
  const std::vector<std::string> &Orig = R.AllowedByBackend["js-original"];
  std::set<std::string> OrigSet(Orig.begin(), Orig.end());
  R.AllowedByBackend["uni-js"] = std::move(UniAllowed);

  for (const TargetModel &M : TargetModel::all()) {
    std::optional<CompiledTarget> CT;
    {
      SpanScope Scope(Log, "compile.target", Id);
      CT = compileUni(*Uni, M.arch());
    }
    OutcomeSummary S;
    {
      SpanScope Scope(Log, targetSpanName(M), Id);
      ColumnSink Sink(C);
      S = E.enumerateOutcomes(*CT, M);
    }
    C.TargetCandidates += S.CandidatesConsidered;
    countEngineColumn(S, E, C);
    std::vector<std::string> Allowed = S.outcomeStrings();
    for (const std::string &O : Allowed) {
      if (!UniSet.count(O))
        R.SoundnessViolations.push_back(std::string(M.name()) + ": " + O);
      if (!OrigSet.count(O))
        R.ObservableWeakenings.push_back(std::string(M.name()) + ": " + O);
    }
    R.AllowedByBackend[M.name()] = std::move(Allowed);
  }
}

std::vector<ExpectationResult>
checkExpectations(const OutcomeSummary &S,
                  const std::vector<LitmusExpectation> &Expectations) {
  std::vector<ExpectationResult> Out;
  for (const LitmusExpectation &E : Expectations) {
    ExpectationResult X;
    X.Allowed = E.Allowed;
    X.Outcome = E.O.toString();
    X.Observed = S.allows(E.O);
    X.Ok = X.Observed == E.Allowed;
    Out.push_back(std::move(X));
  }
  return Out;
}

LitmusJobResult computeReplica(const LitmusJob &Job, uint32_t Id,
                               SpanLog &Log, LayerCounts &C) {
  LitmusJobResult R;
  R.Name = Job.Name;
  R.Model = Job.Model;

  LitmusParseDiag Diag;
  std::optional<LitmusFile> File;
  {
    SpanScope Scope(Log, "litmus.parse", Id);
    File = parseLitmus(Job.Litmus, Diag);
  }
  if (!File) {
    R.Status = Diag.TooLarge ? JobStatus::TooLarge : JobStatus::ParseError;
    R.Error = Diag.Message;
    return R;
  }
  {
    // The service's cache key: computed only when the verdict cache is on,
    // which the benchmark turns off; timed here as the control layer.
    SpanScope Scope(Log, "litmus.canonical", Id);
    std::string Canonical = emitLitmus(*File);
    (void)Canonical;
  }
  if (R.Name.empty())
    R.Name = File->P.Name;

  if (Job.Static) {
    SpanScope Scope(Log, "analysis.classify", Id);
    analysis::StaticClassification SC = analysis::classify(File->P);
    R.HasStatic = true;
    R.StaticallyDrf = SC.StaticallyDrf;
    R.StaticMayRaces = static_cast<unsigned>(SC.MayRaces.size());
    R.StaticLints = static_cast<unsigned>(SC.Lints.size());
  }
  C.DrfJobs += R.StaticallyDrf;

  bool Differential = Job.Model == "differential";
  ExecutionEngine Engine(EngineConfig{Job.Threads, true,
                                      /*ForceDynRelation=*/false,
                                      /*Reduction=*/Job.Reduce,
                                      /*StaticFastPath=*/Job.Static});
  if (std::optional<std::string> Cap =
          ExecutionEngine::capacityError(File->P)) {
    R.Status = JobStatus::TooLarge;
    R.Error = *Cap;
    return R;
  }
  if (Differential) {
    differentialTable(*File, Engine, R.StaticallyDrf, Id, Log, C, R);
    return R;
  }
  bool Original = Job.Model == "original";
  OutcomeSummary S;
  R.AllowedByBackend[Job.Model] = jsColumn(
      File->P, Original ? ModelSpec::original() : ModelSpec::revised(),
      Original ? "engine.js_original" : "engine.js_revised", Id, Engine, Log,
      C, &S);
  R.Expectations = checkExpectations(S, File->Expectations);
  R.DrfFastPath = S.Tier == "static";
  return R;
}

} // namespace

LitmusJobResult tracedCompute(const LitmusJob &Job, uint32_t Id, SpanLog &Log,
                              LayerCounts &C) {
  if (Job.Model != "differential" && Job.Model != "original" &&
      Job.Model != "revised")
    throw std::invalid_argument("the traced replica does not cover model '" +
                                Job.Model + "'");
  SpanScope Scope(Log, "job", Id);
  try {
    return computeReplica(Job, Id, Log, C);
  } catch (const CapacityError &E) {
    LitmusJobResult R;
    R.Name = Job.Name;
    R.Model = Job.Model;
    R.Status = JobStatus::TooLarge;
    R.Error = E.what();
    return R;
  } catch (const std::exception &E) {
    LitmusJobResult R;
    R.Name = Job.Name;
    R.Model = Job.Model;
    R.Status = JobStatus::Unsupported;
    R.Error = std::string("internal error: ") + E.what();
    return R;
  }
}

void tracedValueAnalysis(const LitmusJob &Job, uint32_t Id, SpanLog &Log) {
  std::optional<LitmusFile> File = parseLitmus(Job.Litmus);
  if (!File)
    return;
  SpanScope Scope(Log, "analysis.values", Id);
  analysis::StaticValues V = analysis::analyzeValues(File->P);
  (void)V;
}

SearchAnswer tracedSearch(const SearchJob &S, uint32_t Id, SpanLog &Log,
                          LayerCounts &C) {
  static const char *const Names[] = {"search.compile_cex", "search.scdrf_cex",
                                      "search.bounded"};
  SearchAnswer A;
  {
    SpanScope Job(Log, "job", Id);
    SpanScope Scope(Log, Names[static_cast<int>(S.Kind)], Id);
    A = runSearch(S);
  }
  C.Skeletons += A.Skeletons;
  C.RbfCandidates += A.RbfCandidates;
  C.ArmChecks += A.ArmChecks;
  return A;
}

std::map<std::string, int64_t>
selfTimes(const std::vector<const SpanLog *> &Logs) {
  std::map<std::string, int64_t> Self;
  for (const SpanLog *Log : Logs) {
    const std::vector<Span> &Spans = Log->spans();
    std::vector<int64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildNs[S.Parent] += S.EndNs - S.StartNs;
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[Spans[I].Name] += Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
  }
  return Self;
}

bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (size_t Client = 0; Client < Logs.size(); ++Client) {
    const std::vector<Span> &Spans = Logs[Client]->spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      JsonValue V = JsonValue::object();
      V.set("client", JsonValue(static_cast<uint64_t>(Client)));
      V.set("id", JsonValue(static_cast<uint64_t>(I)));
      V.set("parent", JsonValue(static_cast<double>(S.Parent)));
      V.set("job", JsonValue(static_cast<uint64_t>(S.Job)));
      V.set("name", JsonValue(S.Name));
      V.set("start_ns", JsonValue(static_cast<double>(S.StartNs)));
      V.set("end_ns", JsonValue(static_cast<double>(S.EndNs)));
      Out << V.toString() << "\n";
    }
  }
  return static_cast<bool>(Out);
}

} // namespace perfbench
