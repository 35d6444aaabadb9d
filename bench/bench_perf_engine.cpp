//===- bench_perf_engine.cpp - Experiment E16 (engine performance) --------===//
///
/// \file
/// google-benchmark timings of the unified execution engine — the
/// "execution enumeration is awkward without formal-methods tooling" cost
/// the reproduction pays instead of Alloy/Coq. Documents where the wall
/// time of E6-E13 goes (relation closure, tot enumeration, outcome
/// enumeration, ARM consistency, operational simulation) and measures what
/// the engine's incremental pruning and sharded threading buy over the
/// seed's generate-then-filter loops on the Fig. 9 shape family.
///
/// Usage: bench_perf_engine [--threads=N] [google-benchmark flags]
///
/// Before the micro-benchmarks run, a headline comparison enumerates the
/// Fig. 9 shape programs with (a) the seed-compatible engine (single
/// thread, no pruning), (b) the pruned single-threaded engine and (c) the
/// pruned engine with N threads (default 4), and prints the speedups.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "engine/ExecutionEngine.h"
#include "flatsim/FlatSim.h"
#include "litmus/PathEnum.h"
#include "compile/Compile.h"
#include "compile/TotConstruction.h"
#include "paper/Figures.h"
#include "search/SkeletonSearch.h"
#include "service/LitmusService.h"
#include "targets/UniProgram.h"
#include "solver/TotSolver.h"
#include "support/LinearExtensions.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace jsmm;
using namespace jsmm::paper;
using jsmm::bench::timedMs;

namespace {

unsigned RequestedThreads = 4;

/// The Fig. 9/10 shape family as litmus programs: SeqCst/unordered writes
/// racing with guarded and unguarded reads on two cells — the shapes whose
/// validity flips between the original and revised SC rules, scaled so the
/// justification space is large enough to measure.
std::vector<Program> fig9ShapePrograms() {
  std::vector<Program> Family;
  {
    // Fig. 9 first shape flavour: SC writes on both threads, a plain read
    // behind the SC pair.
    Program P(8);
    P.Name = "fig9-shape1";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    T0.load(Acc::u32(4));
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(4).sc(), 2);
    T1.load(Acc::u32(0));
    Family.push_back(P);
  }
  {
    // Fig. 9 second shape flavour: unordered write before an SC read of
    // the same cell, SC write on the other thread.
    Program P(8);
    P.Name = "fig9-shape2";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0), 1);
    T0.load(Acc::u32(0).sc());
    T0.load(Acc::u32(4));
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(0).sc(), 2);
    T1.store(Acc::u32(4), 2);
    Family.push_back(P);
  }
  {
    // Three-thread sweep over both cells: the largest justification space
    // of the family (every read has four candidate writers per byte).
    Program P(8);
    P.Name = "fig9-sweep3";
    ThreadBuilder T0 = P.thread();
    T0.store(Acc::u32(0).sc(), 1);
    T0.load(Acc::u32(4));
    ThreadBuilder T1 = P.thread();
    T1.store(Acc::u32(4).sc(), 2);
    T1.load(Acc::u32(0));
    ThreadBuilder T2 = P.thread();
    T2.store(Acc::u32(0), 3);
    T2.store(Acc::u32(4), 4);
    Family.push_back(P);
  }
  return Family;
}

double enumerateFamilyMs(EngineConfig Cfg) {
  ExecutionEngine Engine(Cfg);
  auto Start = std::chrono::steady_clock::now();
  for (const Program &P : fig9ShapePrograms()) {
    benchmark::DoNotOptimize(
        Engine.enumerate(P, JsModel(ModelSpec::original())).Allowed.size());
    benchmark::DoNotOptimize(
        Engine.enumerate(P, JsModel(ModelSpec::revised())).Allowed.size());
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// Repeats of each configuration in the headline comparison.
constexpr unsigned HeadlineRepeats = 15;

/// The median wall time of HeadlineRepeats runs of the Fig. 9 family per
/// configuration in \p Cfgs. The runs are interleaved (one of each per
/// round), so a slow stretch of a shared machine hits every configuration
/// alike, and a single descheduled run cannot swing a ratio of medians.
std::vector<double> medianFamilyMs(const std::vector<EngineConfig> &Cfgs) {
  std::vector<std::vector<double>> Runs(Cfgs.size());
  for (unsigned R = 0; R < HeadlineRepeats; ++R)
    for (size_t C = 0; C < Cfgs.size(); ++C)
      Runs[C].push_back(enumerateFamilyMs(Cfgs[C]));
  std::vector<double> Medians;
  for (std::vector<double> &Ms : Runs) {
    std::nth_element(Ms.begin(), Ms.begin() + Ms.size() / 2, Ms.end());
    Medians.push_back(Ms[Ms.size() / 2]);
  }
  return Medians;
}

void solverHeadline(jsmm::bench::Table &T);

//===----------------------------------------------------------------------===//
// Equivalence-aware enumeration (POR) headline
//===----------------------------------------------------------------------===//

/// An SB core padded with \p Fillers symmetric three-store writer threads
/// on private cells: the scalable workload of the POR and capacity
/// headlines (event bound 5 + 3*Fillers).
Program wideSbProgram(unsigned Fillers, const char *Name) {
  UniProgram P(2 + 3 * Fillers);
  P.Name = Name;
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  P.load(T0, 1, Mode::Unordered);
  unsigned T1 = P.thread();
  P.store(T1, 1, 1, Mode::Unordered);
  P.load(T1, 0, Mode::Unordered);
  for (unsigned F = 0; F < Fillers; ++F) {
    unsigned T = P.thread();
    for (unsigned L = 0; L < 3; ++L)
      P.store(T, 2 + 3 * F + L, 1 + L, Mode::Unordered);
  }
  return mixedFromUni(P);
}

/// The wide-SB/IRIW-chain family the reduction targets (the
/// largeDifferentialCorpus shapes as mixed-size programs): an SB core
/// padded with symmetric filler writer threads, where the rf sleep sets
/// collapse the byte-level justification blowup of the u32 reads, plus the
/// 9-thread IRIW chain.
std::vector<Program> porFamilyPrograms() {
  auto WideSb = wideSbProgram;
  auto IriwChain = [] {
    Program P(64);
    P.Name = "iriw-chain-9t";
    unsigned NextOff = 2;
    auto Filler = [&](ThreadBuilder &T, unsigned Count) {
      for (unsigned I = 0; I < Count; ++I)
        T.store(Acc::u8(NextOff++), 1);
    };
    ThreadBuilder W0 = P.thread();
    W0.store(Acc::u8(0), 1);
    Filler(W0, 9);
    ThreadBuilder W1 = P.thread();
    W1.store(Acc::u8(1), 1);
    Filler(W1, 9);
    ThreadBuilder R0 = P.thread();
    R0.load(Acc::u8(0));
    R0.load(Acc::u8(1));
    ThreadBuilder R1 = P.thread();
    R1.load(Acc::u8(1));
    R1.load(Acc::u8(0));
    for (unsigned T = 0; T < 5; ++T) {
      ThreadBuilder F = P.thread();
      Filler(F, 8);
    }
    return P;
  };
  std::vector<Program> Family;
  Family.push_back(WideSb(10, "sb-wide-66"));
  Family.push_back(WideSb(20, "sb-wide-126"));
  Family.push_back(IriwChain());
  return Family;
}

/// Runs the POR family under \p Cfg; accumulates explored candidates into
/// \p Candidates and the outcome tables into \p Tables.
double porFamilyMs(EngineConfig Cfg, uint64_t &Candidates,
                   std::vector<std::vector<std::string>> &Tables) {
  ExecutionEngine Engine(Cfg);
  JsModel M(ModelSpec::revised());
  Candidates = 0;
  Tables.clear();
  auto Start = std::chrono::steady_clock::now();
  for (const Program &P : porFamilyPrograms()) {
    OutcomeSummary S = Engine.enumerateOutcomes(P, M);
    Candidates += S.CandidatesConsidered;
    Tables.push_back(S.outcomeStrings());
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

/// POR headline: the equivalence-aware enumeration against the exhaustive
/// walk on the wide-SB/IRIW-chain family, single-threaded so the drop is
/// the reduction's alone. Gated floors in bench/perf_baseline.json:
/// `speedup_por_x` (wall clock) and `candidate_drop_por_x` (explored
/// candidates — the reduction-effectiveness gate perf_trend.py also
/// prints as a ratio).
void porHeadline(jsmm::bench::Table &T) {
  EngineConfig Off{1, true};
  EngineConfig On = Off;
  On.Reduction = true;
  uint64_t FullCandidates = 0, ReducedCandidates = 0;
  std::vector<std::vector<std::string>> FullTables, ReducedTables;
  porFamilyMs(Off, FullCandidates, FullTables); // warm-up
  double FullMs = porFamilyMs(Off, FullCandidates, FullTables);
  double ReducedMs = porFamilyMs(On, ReducedCandidates, ReducedTables);
  T.check("reduced and unreduced verdict tables are identical on the "
          "wide-SB/IRIW-chain family",
          true, FullTables == ReducedTables);
  T.metric("por_unreduced_ms", FullMs, "ms");
  T.metric("por_reduced_ms", ReducedMs, "ms");
  T.metric("speedup_por_x", ReducedMs > 0 ? FullMs / ReducedMs : 0);
  T.metric("candidates_explored_unreduced",
           static_cast<double>(FullCandidates));
  T.metric("candidates_explored_reduced",
           static_cast<double>(ReducedCandidates));
  T.metric("candidate_drop_por_x",
           ReducedCandidates
               ? static_cast<double>(FullCandidates) / ReducedCandidates
               : 0);
}

/// Capacity headline: the 503-event wide-SB program (the regime the
/// engine used to reject outright at the 256-event cap) served through
/// the default door, its table checked against the bare SB core's (the
/// fillers are private). Gated floor in bench/perf_baseline.json:
/// `dyn_events_max`, the program size served; it trips if the dynamic
/// relation cap ever shrinks back.
void capacityHeadline(jsmm::bench::Table &T) {
  Program Big = wideSbProgram(166, "sb-wide-503");
  JsModel Revised(ModelSpec::revised());
  ExecutionEngine Engine;
  T.check("the 503-event program has the table of its SB core", true,
          Engine.enumerateOutcomes(Big, Revised).outcomeStrings() ==
              Engine.enumerateOutcomes(wideSbProgram(0, "sb-core"), Revised)
                  .outcomeStrings());
  T.metric("dyn_events_max", programEventUpperBound(Big), "events");
}

/// Batch-service headline: jobs/sec over the differential corpus (each job
/// the full 9-backend verdict table), at one worker and at the requested
/// worker count. The better figure is the `service_jobs_per_sec` metric
/// gated by tools/perf_trend.py against bench/perf_baseline.json;
/// bench_service_throughput is the full contract gate.
void serviceHeadline(jsmm::bench::Table &T) {
  std::vector<LitmusJob> Jobs = differentialCorpusJobs();
  { LitmusService Warm; Warm.run(Jobs); } // warm-up

  std::vector<unsigned> WorkerCounts = {1};
  if (RequestedThreads > 1)
    WorkerCounts.push_back(RequestedThreads); // skip a duplicate w1 leg
  double Best = 0;
  bool AllOk = true;
  for (unsigned Workers : WorkerCounts) {
    ServiceConfig Cfg;
    Cfg.Workers = Workers;
    Cfg.CacheVerdicts = false;
    LitmusService Service(Cfg);
    std::vector<LitmusJobResult> Results;
    double Ms = timedMs([&] { Results = Service.run(Jobs); });
    for (const LitmusJobResult &R : Results)
      AllOk = AllOk && R.ok();
    if (Ms > 0)
      Best = std::max(Best, 1000.0 * Jobs.size() / Ms);
  }
  T.check("batch service runs the differential corpus clean", true, AllOk);
  T.metric("service_jobs_per_sec", Best, "jobs/s");

  // Large-program leg: the 65+-event corpus served through the dynamic
  // relation tier, full verdict table per job. Gated by the
  // `large_program_jobs_per_sec` floor in bench/perf_baseline.json.
  std::vector<LitmusJob> LargeJobs = largeCorpusJobs();
  ServiceConfig LargeCfg;
  LargeCfg.CacheVerdicts = false;
  LitmusService LargeService(LargeCfg);
  { LitmusService Warm; Warm.run(LargeJobs); } // warm-up
  std::vector<LitmusJobResult> LargeResults;
  double LargeMs = timedMs([&] { LargeResults = LargeService.run(LargeJobs); });
  bool LargeOk = true;
  for (const LitmusJobResult &R : LargeResults)
    LargeOk = LargeOk && R.ok();
  T.check("batch service serves the 65+-event corpus with ok verdicts",
          true, LargeOk);
  T.metric("large_program_jobs_per_sec",
           LargeMs > 0 ? 1000.0 * LargeJobs.size() / LargeMs : 0, "jobs/s");
}

/// DRF-SC fast-path headline: statically-DRF programs — an all-SeqCst SB
/// core padded with private-byte filler threads, so analysis::classify
/// certifies them while the full 9-backend differential walk stays
/// expensive — run through the service with the static tier off (the full
/// enumeration) and on (one SC interleaving walk replicated across the
/// backends). Gated floors in bench/perf_baseline.json: `speedup_drf_x`
/// (the static-analysis ISSUE's >= 2x target) and `drf_fastpath_hits`
/// (every job of the family must actually be served by the fast path, not
/// silently fall through to the full walk).
void drfHeadline(jsmm::bench::Table &T) {
  auto DrfSb = [](unsigned Fillers, const char *Name) {
    UniProgram P(2 + 3 * Fillers);
    P.Name = Name;
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::SeqCst);
    P.load(T0, 1, Mode::SeqCst);
    unsigned T1 = P.thread();
    P.store(T1, 1, 1, Mode::SeqCst);
    P.load(T1, 0, Mode::SeqCst);
    for (unsigned F = 0; F < Fillers; ++F) {
      unsigned Th = P.thread();
      for (unsigned L = 0; L < 3; ++L)
        P.store(Th, 2 + 3 * F + L, 1 + L, Mode::Unordered);
    }
    return mixedFromUni(P);
  };
  std::vector<LitmusJob> FastJobs;
  for (const auto &[Fillers, Name] :
       {std::pair<unsigned, const char *>{4, "drf-sb-17"},
        {10, "drf-sb-66"},
        {20, "drf-sb-126"}}) {
    LitmusFile F;
    F.P = DrfSb(Fillers, Name);
    LitmusJob J;
    J.Name = Name;
    J.Model = "differential";
    J.Litmus = emitLitmus(F);
    FastJobs.push_back(std::move(J));
  }
  std::vector<LitmusJob> FullJobs = FastJobs;
  for (LitmusJob &J : FullJobs)
    J.Static = false;

  ServiceConfig Cfg;
  Cfg.CacheVerdicts = false;
  LitmusService Service(Cfg);
  Service.run(FastJobs); // warm-up
  std::vector<LitmusJobResult> FastResults, FullResults;
  double FastMs = timedMs([&] { FastResults = Service.run(FastJobs); });
  double FullMs = timedMs([&] { FullResults = Service.run(FullJobs); });
  unsigned Hits = 0;
  bool Agree = FastResults.size() == FullResults.size();
  for (size_t I = 0; I < FastResults.size() && Agree; ++I) {
    Hits += FastResults[I].DrfFastPath;
    Agree = FastResults[I].ok() && FullResults[I].ok() &&
            FastResults[I].AllowedByBackend == FullResults[I].AllowedByBackend;
  }
  T.check("DRF fast-path verdict tables match the full enumeration", true,
          Agree);
  T.metric("drf_full_ms", FullMs, "ms");
  T.metric("drf_fast_ms", FastMs, "ms");
  T.metric("speedup_drf_x", FastMs > 0 ? FullMs / FastMs : 0);
  T.metric("drf_fastpath_hits", Hits, "jobs");
}

/// Value-aware static pruning headline: a racy unordered SB core (the
/// DRF certificate fails, so the full walk runs) padded with private
/// constant-read fillers — an unconditional store before each private
/// load makes the load statically constant (the init write is shadowed
/// and the later same-thread store is excluded by the post-read rule),
/// and a branch on the constant register is statically dead, so the
/// value tier drops whole path combinations (2^(2*fillers) combos
/// collapse to one). The program's final read keeps three covering
/// writers statically narrowed to one; with no further read to trigger
/// the partial-admission check, the unpruned walk completes (and then
/// rejects) the extra leaves, so the completed-candidate counts diverge
/// deterministically. Gated floors in bench/perf_baseline.json:
/// `speedup_staticprune_x` (wall clock) and `rf_candidates_dropped_x`
/// (completed rf candidates without the value tier over those with it —
/// the pruning-effectiveness gate, >= 2x on this family).
void staticPruneHeadline(jsmm::bench::Table &T) {
  auto Prunable = [](unsigned Fillers, const char *Name) {
    Program P(32);
    P.Name = Name;
    for (unsigned Side = 0; Side < 2; ++Side) {
      ThreadBuilder B = P.thread();
      B.store(Acc::u8(Side), 1); // racy SB core on bytes 0/1
      for (unsigned F = 0; F < Fillers; ++F) {
        unsigned Byte = 2 + Fillers * Side + F;
        B.store(Acc::u8(Byte), 7);
        Reg R = B.load(Acc::u8(Byte)); // constant 7: init shadowed
        B.store(Acc::u8(Byte), 3);     // post-read: excluded for R
        B.ifEq(R, 0, [&](ThreadBuilder &C) { C.load(Acc::u8(1 - Side)); });
      }
      B.load(Acc::u8(1 - Side));
      if (Side == 1) {
        // The program's last read: three covering writers (init plus
        // both stores), statically narrowed to the second store.
        unsigned Byte = 2 + 2 * Fillers;
        B.store(Acc::u8(Byte), 7);
        B.store(Acc::u8(Byte), 3);
        B.load(Acc::u8(Byte));
      }
    }
    return P;
  };
  std::vector<Program> Family;
  for (const auto &[Fillers, Name] :
       {std::pair<unsigned, const char *>{2, "staticprune-sb-23"},
        {4, "staticprune-sb-39"},
        {6, "staticprune-sb-55"}})
    Family.push_back(Prunable(Fillers, Name));

  uint64_t RfPruned = 0, PathsPruned = 0;
  auto FamilyMs = [&](bool Static, uint64_t &Candidates,
                      std::vector<std::vector<std::string>> &Tables) {
    EngineConfig Cfg;
    Cfg.StaticFastPath = Static;
    ExecutionEngine Engine(Cfg);
    Candidates = 0;
    Tables.clear();
    return timedMs([&] {
      for (const Program &P : Family)
        for (const ModelSpec &Spec :
             {ModelSpec::original(), ModelSpec::revised()}) {
          OutcomeSummary S = Engine.enumerateOutcomes(P, JsModel(Spec));
          Candidates += S.CandidatesConsidered;
          Tables.push_back(S.outcomeStrings());
          RfPruned += Engine.Stats.StaticRfPruned;
          PathsPruned += Engine.Stats.StaticPathsPruned;
        }
    });
  };
  uint64_t WarmCandidates, FullCandidates, PrunedCandidates;
  std::vector<std::vector<std::string>> WarmTables, FullTables, PrunedTables;
  FamilyMs(true, WarmCandidates, WarmTables); // warm-up
  RfPruned = PathsPruned = 0;
  double FullMs = FamilyMs(false, FullCandidates, FullTables);
  double PrunedMs = FamilyMs(true, PrunedCandidates, PrunedTables);
  T.check("value-pruned and full verdict tables are identical on the "
          "racy-but-prunable family",
          true, FullTables == PrunedTables);
  T.check("static rf and path pruning both fire on the family", true,
          RfPruned > 0 && PathsPruned > 0);
  T.metric("staticprune_full_ms", FullMs, "ms");
  T.metric("staticprune_pruned_ms", PrunedMs, "ms");
  T.metric("speedup_staticprune_x", PrunedMs > 0 ? FullMs / PrunedMs : 0);
  T.metric("candidates_explored_static_full",
           static_cast<double>(FullCandidates));
  T.metric("candidates_explored_static_pruned",
           static_cast<double>(PrunedCandidates));
  T.metric("rf_candidates_dropped_x",
           PrunedCandidates
               ? static_cast<double>(FullCandidates) / PrunedCandidates
               : 0);
}

/// \returns the failed-claim count (0 on success), for main's exit code.
int headlineComparison() {
  // Warm-up pass so first-touch allocation noise doesn't skew the seed run.
  enumerateFamilyMs(EngineConfig{1, false});
  std::vector<double> Ms =
      medianFamilyMs({EngineConfig::seedCompatible(), EngineConfig{1, true},
                      EngineConfig{RequestedThreads, true}});
  double SeedMs = Ms[0], PrunedMs = Ms[1], ShardedMs = Ms[2];
  // The table also writes BENCH_perf-engine.json: the speedup metrics in it
  // are what tools/perf_trend.py gates CI on (bench/perf_baseline.json).
  jsmm::bench::Table T("perf-engine",
                       "engine headline: Fig. 9 shape family, seed "
                       "generate-then-filter vs pruned vs sharded");
  T.metric("seed_ms", SeedMs, "ms");
  T.metric("pruned_ms", PrunedMs, "ms");
  T.metric("sharded_ms", ShardedMs, "ms");
  T.metric("speedup_pruned_x", SeedMs / PrunedMs);
  T.metric("speedup_sharded_x", SeedMs / ShardedMs);
  T.metric("threads", RequestedThreads);
  T.metric("repeats", HeadlineRepeats);
  // The reproduction claim is "the engine beats the seed", at whichever
  // configuration suits the machine — on a single-core box sharding adds
  // overhead and pruning provides the win, so gate on the better of the two.
  T.check("engine (pruned, best of 1/" + std::to_string(RequestedThreads) +
              " threads) beats seed",
          true, std::min(PrunedMs, ShardedMs) < SeedMs);
  porHeadline(T);
  solverHeadline(T);
  capacityHeadline(T);
  serviceHeadline(T);
  drfHeadline(T);
  staticPruneHeadline(T);
  return T.finish();
}

//===----------------------------------------------------------------------===//
// Seed-path reconstructions for the solver/sweep headlines
//===----------------------------------------------------------------------===//
//
// The seed decided every tot-existence question by enumerating the linear
// extensions of hb (no constraint extraction, no mid-prefix exit) and every
// coherence-existence question by walking all completions (no prefix
// refutation). Both loops are reconstructed here from the public kernel
// APIs, so the headline baselines keep measuring the seed algorithm even
// as the library's own fast paths evolve.

/// Seed isValidForSomeTot: exhaustive linear-extension search.
bool seedValidForSomeTot(const CandidateExecution &CE, ModelSpec Spec) {
  const DerivedTriple &D = CE.derived(Spec.Sw);
  if (!checkTotIndependentAxioms(CE, D, Spec))
    return false;
  if (!D.Hb.isAcyclic())
    return false;
  bool Found = false;
  forEachLinearExtension(
      D.Hb, CE.allEventsMask(), [&](const std::vector<unsigned> &Seq) {
        Relation Tot = totalOrderOver(Seq, CE.numEvents());
        if (checkScAtomics(CE, D, Spec.Sc, Tot)) {
          Found = true;
          return false;
        }
        return true;
      });
  return Found;
}

/// Seed ArmDerived::compute: every dob/aob/bob term built unconditionally
/// (the library now skips empty dependency and fence classes).
Relation seedArmOb(const ArmExecution &X) {
  unsigned N = X.numEvents();
  Relation Rf = X.readsFrom();
  Relation Co = X.coherence();
  Relation Fr = X.fromReads();
  Relation Rfe = X.externalPart(Rf);
  Relation Coe = X.externalPart(Co);
  Relation Fre = X.externalPart(Fr);
  Relation Rfi = X.internalPart(Rf);
  Relation Coi = X.internalPart(Co);
  Relation Obs = Rfe.unioned(Coe).unioned(Fre);

  BitSet Writes =
      X.eventsWhere([](const ArmEvent &E) { return E.isWrite(); });
  BitSet Reads = X.eventsWhere([](const ArmEvent &E) { return E.isRead(); });
  BitSet Acq = X.eventsWhere(
      [](const ArmEvent &E) { return E.isRead() && E.Acquire; });
  BitSet Rel = X.eventsWhere(
      [](const ArmEvent &E) { return E.isWrite() && E.Release; });
  BitSet DmbFull = X.eventsWhere(
      [](const ArmEvent &E) { return E.Kind == ArmKind::DmbFull; });
  BitSet DmbLd = X.eventsWhere(
      [](const ArmEvent &E) { return E.Kind == ArmKind::DmbLd; });
  BitSet DmbSt = X.eventsWhere(
      [](const ArmEvent &E) { return E.Kind == ArmKind::DmbSt; });
  BitSet Isb = X.eventsWhere(
      [](const ArmEvent &E) { return E.Kind == ArmKind::Isb; });
  BitSet All = X.allEventsMask();
  const Relation &Po = X.Po;
  auto Restrict = [&](const BitSet &A, const Relation &R, const BitSet &B) {
    return R.restricted(A, B);
  };
  Relation CtrlOrAddrPo = X.CtrlDep.unioned(X.AddrDep.compose(Po));
  Relation Dob =
      X.AddrDep.unioned(X.DataDep)
          .unioned(Restrict(All, X.CtrlDep, Writes))
          .unioned(CtrlOrAddrPo.intersected(Relation::product(All, Isb, N))
                       .compose(Restrict(Isb, Po, Reads)))
          .unioned(X.AddrDep.compose(Restrict(All, Po, Writes)))
          .unioned(X.CtrlDep.unioned(X.DataDep).compose(Coi))
          .unioned(X.AddrDep.unioned(X.DataDep).compose(Rfi));
  BitSet RmwWrites(N);
  X.Rmw.forEachPair([&](unsigned, unsigned W) { bits::set(RmwWrites, W); });
  Relation Aob = X.Rmw.unioned(Restrict(RmwWrites, Rfi, Acq));
  Relation PoL = Restrict(All, Po, Rel);
  Relation Bob =
      Restrict(All, Po, DmbFull).compose(Restrict(DmbFull, Po, All));
  Bob.unionWith(Restrict(Rel, Po, Acq));
  Bob.unionWith(Restrict(Reads, Po, DmbLd).compose(Restrict(DmbLd, Po, All)));
  Bob.unionWith(Restrict(Acq, Po, All));
  Bob.unionWith(
      Restrict(Writes, Po, DmbSt).compose(Restrict(DmbSt, Po, Writes)));
  Bob.unionWith(PoL);
  Bob.unionWith(PoL.compose(Coi));
  return Obs.unioned(Dob).unioned(Aob).unioned(Bob).transitiveClosure();
}

/// Seed isArmConsistent: internal axiom, then the full seed derivation.
bool seedIsArmConsistent(const ArmExecution &X) {
  if (!checkArmInternal(X))
    return false;
  if (!seedArmOb(X).isIrreflexive())
    return false;
  Relation Fre = X.externalPart(X.fromReads());
  Relation Coe = X.externalPart(X.coherence());
  return X.Rmw.intersected(Fre.compose(Coe)).empty();
}

/// Seed armConsistentForSomeCo: unpruned completion walk.
bool seedArmConsistentForSomeCo(const ArmExecution &X) {
  ArmExecution Work = X;
  Work.Co = Work.computeGranules();
  bool Found = false;
  forEachCoherenceCompletion(Work, [&] {
    if (!seedIsArmConsistent(Work))
      return true;
    Found = true;
    return false;
  });
  return Found;
}

/// The 4-event Init-synchronization compilation counter-example (dead
/// under the original model), padded with \p K unordered writes on fresh
/// threads and bytes: hb stays sparse, so the seed's linear-extension
/// count grows factorially with K while the propagation solver's conflict
/// detection stays polynomial — the workload the ROADMAP's "factorial hot
/// loop" note is about (the paper's Alloy bound of 8 events / 20
/// locations lives well inside this regime).
CandidateExecution paddedDeadExecution(unsigned K) {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 2 + K));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 1, 1));
  Evs.push_back(makeRead(2, 0, Mode::SeqCst, 1, 1, 0));
  Evs.push_back(makeWrite(3, 1, Mode::Unordered, 1, 1, 3));
  Evs.push_back(makeRead(4, 1, Mode::SeqCst, 0, 1, 0));
  for (unsigned I = 0; I < K; ++I)
    Evs.push_back(makeWrite(5 + I, 2 + static_cast<int>(I), Mode::Unordered,
                            2 + I, 1, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 2);
  CE.Sb.set(3, 4);
  CE.Rbf.push_back({1, 0, 2});
  CE.Rbf.push_back({0, 0, 4});
  return CE;
}

SearchConfig sec52Config() {
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 6;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::original();
  Cfg.Deadness = SearchConfig::DeadnessMode::Semantic;
  Cfg.ExcludeInitSynchronization = true;
  return Cfg;
}

/// The seed's §5.2 search loop (generate, brute-force deadness, unpruned
/// coherence witness).
bool seedSec52Search() {
  SearchConfig Cfg = sec52Config();
  bool Found = false;
  forEachSkeletonCandidate(
      Cfg,
      [&](const CandidateExecution &Js, const ArmExecution &Arm) {
        for (const Event &R : Js.Events) {
          if (!R.isRead() || R.Ord != Mode::SeqCst)
            continue;
          bool OnlyInit = true;
          for (const RbfEdge &E : Js.Rbf)
            if (E.Reader == R.Id && Js.Events[E.Writer].Ord != Mode::Init)
              OnlyInit = false;
          if (OnlyInit)
            return true;
        }
        if (seedValidForSomeTot(Js, Cfg.Js))
          return true; // not semantically dead
        if (!seedArmConsistentForSomeCo(Arm))
          return true;
        Found = true;
        return false;
      },
      nullptr);
  return Found;
}

SearchConfig sec53Config() {
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 4;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::revised();
  return Cfg;
}

/// The seed's §5.3 loop: every coherence completion consistency-checked,
/// the construction verified on the consistent ones.
uint64_t seedSec53Check() {
  SearchConfig Cfg = sec53Config();
  uint64_t Consistent = 0;
  forEachSkeletonCandidate(
      Cfg,
      [&](const CandidateExecution &Js, const ArmExecution &Arm) {
        ArmExecution Work = Arm;
        Work.Co = Work.computeGranules();
        forEachCoherenceCompletion(Work, [&] {
          if (!seedIsArmConsistent(Work))
            return true;
          ++Consistent;
          TranslationResult TR;
          TR.Js = Js;
          TR.JsOfArm.resize(Work.numEvents());
          for (unsigned I = 0; I < Work.numEvents(); ++I)
            TR.JsOfArm[I] = I;
          Relation Tot;
          if (constructTot(TR, Work, &Tot)) {
            CandidateExecution WithTot = Js;
            WithTot.Tot = Tot;
            benchmark::DoNotOptimize(isValid(WithTot, Cfg.Js));
          }
          return true;
        });
        return true;
      },
      nullptr);
  return Consistent;
}

/// Headline comparison of the §5.2/§5.3 sweeps and the per-candidate
/// solver against their seed paths, appended to the perf-engine table so
/// the speedup metrics land in BENCH_perf-engine.json and are gated by
/// tools/perf_trend.py against bench/perf_baseline.json.
void solverHeadline(jsmm::bench::Table &T) {
  // Solver headline: the paper-scale padded dead execution (11 events,
  // sparse hb: 907200 linear extensions, all of which the seed's deadness
  // decision enumerated). The propagation solver derives the conflict at
  // fixpoint without enumerating anything, so the gap is four orders of
  // magnitude; the committed floor only gates the order of magnitude.
  {
    CandidateExecution Big = paddedDeadExecution(6);
    bool SeedValid = true, BruteValid = true, PropValid = true;
    double SolverSeedMs = timedMs([&] {
      SeedValid = seedValidForSomeTot(Big, ModelSpec::original());
    });
    double SolverBruteMs = timedMs([&] {
      BruteValid = isValidForSomeTot(Big, ModelSpec::original(), nullptr,
                                     totSolver(SolverKind::Brute));
    });
    // The propagation run is microseconds; loop it for a stable reading.
    constexpr unsigned PropIters = 1000;
    double SolverPropMs = timedMs([&] {
      for (unsigned I = 0; I < PropIters; ++I)
        PropValid = isValidForSomeTot(Big, ModelSpec::original(), nullptr,
                                      totSolver(SolverKind::Propagate));
    }) / PropIters;
    T.check("solvers agree with the seed decision procedure (dead)", true,
            !SeedValid && !BruteValid && !PropValid);
    T.metric("solver_seed_ms", SolverSeedMs, "ms");
    T.metric("solver_brute_ms", SolverBruteMs, "ms");
    T.metric("solver_propagate_ms", SolverPropMs, "ms");
    T.metric("speedup_solver_x", SolverSeedMs / SolverPropMs);
  }

  // §5.2: the full counter-example search (E7's headline row).
  bool SeedFound = false, FastFound = false;
  double Sec52SeedMs = timedMs([&] { SeedFound = seedSec52Search(); });
  double Sec52FastMs = timedMs([&] {
    SearchConfig Cfg = sec52Config();
    Cfg.Threads = 0; // one worker per hardware thread
    FastFound = searchArmCompilationCex(Cfg).has_value();
  });
  T.check("fast and seed sec52 searches agree", true,
          SeedFound == FastFound);
  T.metric("sec52_seed_ms", Sec52SeedMs, "ms");
  T.metric("sec52_fast_ms", Sec52FastMs, "ms");
  T.metric("speedup_sec52_x", Sec52SeedMs / Sec52FastMs);

  // §5.3: the bounded compilation check at a 4-event bound.
  uint64_t SeedConsistent = 0;
  BoundedCompilationReport FastR;
  double Sec53SeedMs = timedMs([&] { SeedConsistent = seedSec53Check(); });
  double Sec53FastMs = timedMs([&] {
    SearchConfig Cfg = sec53Config();
    Cfg.Threads = 0; // one worker per hardware thread
    FastR = boundedCompilationCheck(Cfg);
  });
  T.check("fast and seed sec53 sweeps see the same consistent executions",
          true, SeedConsistent == FastR.ArmConsistentExecutions);
  T.check("construction holds at the 4-event bound", true, FastR.holds());
  T.metric("sec53_seed_ms", Sec53SeedMs, "ms");
  T.metric("sec53_fast_ms", Sec53FastMs, "ms");
  T.metric("speedup_sec53_x", Sec53SeedMs / Sec53FastMs);
  T.note("seed baselines replay the seed ALGORITHM (exhaustive linear "
         "extensions, unpruned coherence walks, unconditional dob/aob/bob) "
         "on the current kernel, which this PR also made faster "
         "(allocation-free relations, short-circuited derivations) — a far "
         "stricter baseline than the seed commit's binary, which ran the "
         "sec52 search 3.5x slower than today's sweep on the dev machine");
}

void BM_TransitiveClosure(benchmark::State &State) {
  Relation R(static_cast<unsigned>(State.range(0)));
  for (unsigned I = 0; I + 1 < R.size(); ++I)
    R.set(I, I + 1);
  R.set(R.size() / 2, 0);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.transitiveClosure());
}
BENCHMARK(BM_TransitiveClosure)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_LinearExtensions(benchmark::State &State) {
  // hb of the Fig. 6a execution: the realistic tot-enumeration workload.
  CandidateExecution CE = fig6aExecution();
  Relation Hb = CE.happensBefore(SwDefKind::SpecWithInitCase);
  for (auto _ : State) {
    uint64_t Count = 0;
    forEachLinearExtension(Hb, CE.allEventsMask(),
                           [&](const std::vector<unsigned> &) {
                             ++Count;
                             return true;
                           });
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_LinearExtensions);

void BM_ValidityCheck(benchmark::State &State) {
  CandidateExecution CE = fig6aExecution();
  CE.Tot = totalOrderOver({0, 1, 2, 3, 4, 5, 6}, 7);
  for (auto _ : State)
    benchmark::DoNotOptimize(isValid(CE, ModelSpec::revised()));
}
BENCHMARK(BM_ValidityCheck);

void BM_ExistsValidTot(benchmark::State &State) {
  CandidateExecution CE = fig6aExecution();
  for (auto _ : State)
    benchmark::DoNotOptimize(isValidForSomeTot(CE, ModelSpec::revised()));
}
BENCHMARK(BM_ExistsValidTot);

void BM_SemanticDeadness(benchmark::State &State) {
  CandidateExecution CE = fig6aExecution();
  for (auto _ : State)
    benchmark::DoNotOptimize(isInvalidForAllTot(CE, ModelSpec::original()));
}
BENCHMARK(BM_SemanticDeadness);

void BM_EnumerateFig1Outcomes(benchmark::State &State) {
  Program P = fig1Program();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        enumerateOutcomes(P, ModelSpec::revised()).Allowed.size());
}
BENCHMARK(BM_EnumerateFig1Outcomes);

void BM_EnumerateFig6Outcomes(benchmark::State &State) {
  Program P = fig6Program();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        enumerateOutcomes(P, ModelSpec::original()).Allowed.size());
}
BENCHMARK(BM_EnumerateFig6Outcomes);

/// The headline workload as a google-benchmark: Arg encodes the engine
/// configuration — 0 = seed-compatible, 1 = pruned single-threaded,
/// N >= 2 = pruned with N workers.
void BM_EnumerateFig9Shapes(benchmark::State &State) {
  EngineConfig Cfg = State.range(0) == 0
                         ? EngineConfig::seedCompatible()
                         : EngineConfig{static_cast<unsigned>(State.range(0)),
                                        true};
  for (auto _ : State)
    benchmark::DoNotOptimize(enumerateFamilyMs(Cfg));
}
BENCHMARK(BM_EnumerateFig9Shapes)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_ArmConsistency(benchmark::State &State) {
  CompiledProgram CP = compileToArm(fig6Program());
  std::vector<ArmExecution> Execs;
  forEachArmExecution(CP.Arm, [&](const ArmExecution &X, const Outcome &) {
    Execs.push_back(X);
    return Execs.size() < 64;
  });
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(isArmConsistent(Execs[I]));
    I = (I + 1) % Execs.size();
  }
}
BENCHMARK(BM_ArmConsistency);

void BM_ArmEnumerateMP(benchmark::State &State) {
  ArmProgram P = armMP(true, true);
  for (auto _ : State)
    benchmark::DoNotOptimize(enumerateArmOutcomes(P).Allowed.size());
}
BENCHMARK(BM_ArmEnumerateMP);

void BM_ArmEnumerateMPSharded(benchmark::State &State) {
  ArmProgram P = armMP(true, true);
  ExecutionEngine Engine(
      EngineConfig{static_cast<unsigned>(State.range(0)), true});
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.enumerate(P, Armv8Model()).Allowed.size());
}
BENCHMARK(BM_ArmEnumerateMPSharded)->Arg(2)->Arg(4);

void BM_FlatSimMP(benchmark::State &State) {
  ArmProgram P = armMP(false, false);
  for (auto _ : State)
    benchmark::DoNotOptimize(runFlat(P).DistinctExecutions);
}
BENCHMARK(BM_FlatSimMP);

void BM_CompileCheckFig6(benchmark::State &State) {
  Program P = fig6Program();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        checkCompilationForProgram(P, ModelSpec::revised()).ArmConsistent);
}
BENCHMARK(BM_CompileCheckFig6);

void BM_SkeletonSweep4Events(benchmark::State &State) {
  SearchConfig Cfg;
  Cfg.MinEvents = 4;
  Cfg.MaxEvents = 4;
  Cfg.NumLocs = 2;
  for (auto _ : State) {
    uint64_t Count = 0;
    forEachSkeletonCandidate(
        Cfg,
        [&](const CandidateExecution &, const ArmExecution &) {
          ++Count;
          return true;
        },
        nullptr);
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_SkeletonSweep4Events);

} // namespace

int main(int argc, char **argv) {
  // Strip our own --threads=N before google-benchmark sees the arguments.
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::strncmp(argv[I], "--threads=", 10) == 0) {
      char *End = nullptr;
      unsigned long N = std::strtoul(argv[I] + 10, &End, 10);
      if (End == argv[I] + 10 || *End != '\0' || N == 0) {
        std::fprintf(stderr, "bench_perf_engine: bad thread count '%s'\n",
                     argv[I] + 10);
        return 1;
      }
      RequestedThreads = static_cast<unsigned>(N);
    } else {
      Args.push_back(argv[I]);
    }
  }
  int Argc = static_cast<int>(Args.size());
  int HeadlineFailures = headlineComparison();
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return HeadlineFailures == 0 ? 0 : 1;
}
