//===- search/SkeletonSearch.cpp ------------------------------------------===//

#include "search/SkeletonSearch.h"

#include "compile/TotConstruction.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

using namespace jsmm;

namespace {

/// Per-event skeleton assignment.
struct EventShape {
  int Thread = 0;
  bool IsWrite = true;
  Mode Ord = Mode::SeqCst;
  unsigned Loc = 0;
};

/// Builds the JS/ARM twins for a complete shape assignment. Event 0 is
/// Init; access event i of the shape becomes event i+1.
void buildTwins(const std::vector<EventShape> &Shape, unsigned NumLocs,
                CandidateExecution &Js, ArmExecution &Arm) {
  unsigned N = static_cast<unsigned>(Shape.size());
  std::vector<Event> JsEvents;
  std::vector<ArmEvent> ArmEvents;
  JsEvents.push_back(makeInit(0, NumLocs));
  ArmEvents.push_back(makeArmInit(0, NumLocs));
  for (unsigned I = 0; I < N; ++I) {
    const EventShape &S = Shape[I];
    EventId Id = I + 1;
    // Writes write the distinct value Id; reads get values through rbf.
    if (S.IsWrite) {
      JsEvents.push_back(makeWrite(Id, S.Thread, S.Ord, S.Loc, 1,
                                   /*Value=*/Id));
      ArmEvents.push_back(makeArmWrite(Id, S.Thread, S.Loc, 1, /*Value=*/Id,
                                       /*Release=*/S.Ord == Mode::SeqCst));
    } else {
      JsEvents.push_back(makeRead(Id, S.Thread, S.Ord, S.Loc, 1,
                                  /*Value=*/0));
      ArmEvents.push_back(makeArmRead(Id, S.Thread, S.Loc, 1,
                                      /*Acquire=*/S.Ord == Mode::SeqCst));
    }
  }
  Js = CandidateExecution(std::move(JsEvents));
  Arm = ArmExecution(std::move(ArmEvents));
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = I + 1; J < N; ++J)
      if (Shape[I].Thread == Shape[J].Thread) {
        Js.Sb.set(I + 1, J + 1);
        Arm.Po.set(I + 1, J + 1);
      }
}

/// The (kind, mode) of an event as its rank in choice order: the key by
/// which two thread blocks of equal length are ordered.
unsigned kindModeRank(const EventShape &S) {
  return (S.IsWrite ? 0 : 2) + (S.Ord == Mode::SeqCst ? 0 : 1);
}

/// \returns the first position of the thread block that ends at \p End
/// (exclusive). Blocks are contiguous because shapes are thread-sorted.
unsigned blockStart(const std::vector<EventShape> &Shape, unsigned End) {
  unsigned Start = End;
  while (Start > 0 && Shape[Start - 1].Thread == Shape[End - 1].Thread)
    --Start;
  return Start;
}

/// \returns true if the thread block ending at \p End may close: it is
/// the first block, or it is shorter than the block before it, or it is as
/// long and its (kind, mode) sequence does not sort before that block's.
bool blockMayClose(const std::vector<EventShape> &Shape, unsigned End) {
  unsigned Start = blockStart(Shape, End);
  if (Start == 0)
    return true;
  unsigned PrevStart = blockStart(Shape, Start);
  if (End - Start != Start - PrevStart)
    return End - Start < Start - PrevStart;
  return !std::lexicographical_compare(
      Shape.begin() + Start, Shape.begin() + End, Shape.begin() + PrevStart,
      Shape.begin() + Start, [](const EventShape &A, const EventShape &B) {
        return kindModeRank(A) < kindModeRank(B);
      });
}

/// Enumerates the canonical choices for position \p Pos of a shape whose
/// earlier positions are set, invoking \p Fn(Shape) for each. Canonical
/// shapes (one per isomorphism class up to ties; SkeletonSearch.h has the
/// completeness argument) follow three rules:
///
///   1. Thread-sorted: threads are non-decreasing along event order.
///   2. Locations form a restricted-growth string.
///   3. Thread blocks are ordered: each block is at least as long as the
///      next, and two blocks of equal length are ordered by their (kind,
///      mode) sequence. A block is checked when it closes: here, when the
///      next thread starts, and at the leaf for the last block.
///
/// The single source of the choice order: both the sequential recursion
/// and the sharded work-unit collection iterate through here, so unit
/// order always refines sequential order.
/// \p Fn returns false to stop; \returns false if stopped.
template <typename FnT>
bool forEachShapeChoice(const SearchConfig &Cfg, unsigned NumLocs,
                        const std::vector<EventShape> &Shape, unsigned Pos,
                        int MaxThreadUsed, int MaxLocUsed, FnT Fn) {
  int ThreadLimit = std::min<int>(MaxThreadUsed + 1,
                                  static_cast<int>(Cfg.MaxThreads) - 1);
  unsigned LocLimit = std::min<unsigned>(MaxLocUsed + 1, NumLocs - 1);
  for (int T = std::max(MaxThreadUsed, 0); T <= ThreadLimit; ++T) {
    // Starting the next thread closes the current block.
    if (T > MaxThreadUsed && Pos > 0 && !blockMayClose(Shape, Pos))
      continue;
    for (bool IsWrite : {true, false})
      for (Mode Ord : {Mode::SeqCst, Mode::Unordered})
        for (unsigned Loc = 0; Loc <= LocLimit; ++Loc)
          if (!Fn(EventShape{T, IsWrite, Ord, Loc}))
            return false;
  }
  return true;
}

/// Per-work-unit rbf-candidate meter. Counts locally and flushes into the
/// shared total when the unit finishes, so workers do not contend on an
/// atomic per candidate; the budget check uses the unit-start snapshot of
/// the shared total plus the local count — exact in sequential runs,
/// slightly permissive across concurrent units (documented on
/// SearchConfig::Threads).
struct RbfMeter {
  std::atomic<uint64_t> *Total = nullptr; ///< null: no metering
  std::atomic<bool> *Exhausted = nullptr;
  uint64_t Max = 0;  ///< 0: no cap
  uint64_t Base = 0; ///< shared total at unit start
  uint64_t Local = 0;

  void beginUnit() {
    if (Total)
      Base = Total->load(std::memory_order_relaxed);
    Local = 0;
  }
  void flushUnit() {
    if (Total && Local)
      Total->fetch_add(Local, std::memory_order_relaxed);
    Local = 0;
  }
};

/// Enumerates rbf choices for the twins through the engine's joint
/// justifier, metering the candidate budget.
bool enumerateRbf(
    CandidateExecution &Js, ArmExecution &Arm, RbfMeter *Meter,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit) {
  return ExecutionEngine::forEachTwinJustification(
      Js, Arm,
      [&](const CandidateExecution &J, const ArmExecution &A) {
        if (Meter && Meter->Total) {
          ++Meter->Local;
          if (Meter->Max && Meter->Base + Meter->Local > Meter->Max) {
            if (Meter->Exhausted)
              Meter->Exhausted->store(true, std::memory_order_relaxed);
            return false;
          }
          if (Meter->Exhausted &&
              Meter->Exhausted->load(std::memory_order_relaxed))
            return false;
        }
        return Visit(J, A);
      });
}

/// Enumerates the canonical shapes from position \p Pos (earlier positions
/// prefilled) and the rbf candidates of each. Every shape that reaches the
/// leaf counts as one skeleton in \p Skeletons.
bool enumerateShapes(
    const SearchConfig &Cfg, unsigned NumEvents, unsigned NumLocs,
    std::vector<EventShape> &Shape, unsigned Pos, int MaxThreadUsed,
    int MaxLocUsed, std::atomic<uint64_t> *Skeletons, RbfMeter *Meter,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit) {
  if (Pos == NumEvents) {
    // Require every location to be used (smaller-footprint shapes are
    // covered by the smaller NumLocs pass); locations grow one at a time,
    // so that is the largest one.
    if (MaxLocUsed != static_cast<int>(NumLocs) - 1)
      return true;
    if (!blockMayClose(Shape, NumEvents))
      return true;
    if (Skeletons)
      Skeletons->fetch_add(1, std::memory_order_relaxed);
    CandidateExecution Js;
    ArmExecution Arm;
    buildTwins(Shape, NumLocs, Js, Arm);
    return enumerateRbf(Js, Arm, Meter, Visit);
  }
  return forEachShapeChoice(
      Cfg, NumLocs, Shape, Pos, MaxThreadUsed, MaxLocUsed,
      [&](const EventShape &S) {
        Shape[Pos] = S;
        return enumerateShapes(Cfg, NumEvents, NumLocs, Shape, Pos + 1,
                               std::max(MaxThreadUsed, S.Thread),
                               std::max(MaxLocUsed, static_cast<int>(S.Loc)),
                               Skeletons, Meter, Visit);
      });
}

//===----------------------------------------------------------------------===//
// Sharded sweep driver
//===----------------------------------------------------------------------===//

/// One work unit of a sharded (NumEvents, NumLocs) pass: a complete
/// assignment of the first few shape positions; the unit enumerates the
/// remaining positions sequentially. Units are collected in the order the
/// sequential recursion reaches their prefixes, so unit order refines the
/// sequential enumeration order.
struct ShapeUnit {
  std::vector<EventShape> Prefix;
  int MaxThreadUsed = -1;
  int MaxLocUsed = -1;
};

void collectUnits(const SearchConfig &Cfg, unsigned NumLocs,
                  std::vector<EventShape> &Prefix, unsigned Pos,
                  unsigned Depth, int MaxThreadUsed, int MaxLocUsed,
                  std::vector<ShapeUnit> &Units) {
  if (Pos == Depth) {
    Units.push_back({Prefix, MaxThreadUsed, MaxLocUsed});
    return;
  }
  forEachShapeChoice(Cfg, NumLocs, Prefix, Pos, MaxThreadUsed, MaxLocUsed,
                     [&](const EventShape &S) {
                       Prefix[Pos] = S;
                       collectUnits(
                           Cfg, NumLocs, Prefix, Pos + 1, Depth,
                           std::max(MaxThreadUsed, S.Thread),
                           std::max(MaxLocUsed, static_cast<int>(S.Loc)),
                           Units);
                       return true;
                     });
}

/// The candidate visitor of a sharded sweep. Invoked concurrently from
/// different units, with the unit index; must only touch state owned by
/// that unit (or atomics). \returns false to finish the unit early — the
/// driver records the unit as a hit.
using UnitVisit = std::function<bool(size_t Unit, const CandidateExecution &,
                                     const ArmExecution &)>;

/// Runs one (NumEvents, NumLocs) pass of the skeleton sweep across
/// \p Workers threads. A unit whose index exceeds the smallest hit unit so
/// far is abandoned (its hit could never win), so early termination
/// carries over from the sequential search; units below the current best
/// always run to completion, which makes the winning unit — and therefore
/// the search result — identical for every thread count in unbudgeted
/// runs. (A budget is consumed jointly by concurrent units, so where it
/// cuts off — and hence the result of a budget-capped multi-worker run —
/// depends on scheduling; see SearchConfig::Threads.)
///
/// \returns the smallest hit unit index, or SIZE_MAX if no unit hit.
size_t runShardedPass(const SearchConfig &Cfg, unsigned NumEvents,
                      unsigned NumLocs, unsigned Workers, SearchStats *Stats,
                      std::atomic<bool> &BudgetExhausted,
                      const UnitVisit &Visit) {
  unsigned Depth = std::min(NumEvents, 2u);
  std::vector<ShapeUnit> Units;
  {
    std::vector<EventShape> Prefix(Depth);
    collectUnits(Cfg, NumLocs, Prefix, 0, Depth, -1, -1, Units);
  }

  std::atomic<uint64_t> Skeletons{0}, RbfCandidates{Stats ? Stats->RbfCandidates
                                                          : 0};
  std::atomic<size_t> NextUnit{0};
  std::atomic<size_t> MinHitUnit{SIZE_MAX};

  auto RunUnit = [&](size_t I) {
    ShapeUnit &U = Units[I];
    std::vector<EventShape> Shape(NumEvents);
    std::copy(U.Prefix.begin(), U.Prefix.end(), Shape.begin());
    RbfMeter Meter{Stats ? &RbfCandidates : nullptr, &BudgetExhausted,
                   Cfg.MaxCandidates};
    Meter.beginUnit();
    enumerateShapes(
        Cfg, NumEvents, NumLocs, Shape, Depth, U.MaxThreadUsed, U.MaxLocUsed,
        &Skeletons, &Meter,
        [&](const CandidateExecution &Js, const ArmExecution &Arm) {
          if (BudgetExhausted.load(std::memory_order_relaxed))
            return false;
          if (I > MinHitUnit.load(std::memory_order_relaxed))
            return false; // beaten by an earlier unit: abandon
          if (!Visit(I, Js, Arm)) {
            // Record the hit; keep the smallest unit index.
            size_t Cur = MinHitUnit.load(std::memory_order_relaxed);
            while (I < Cur &&
                   !MinHitUnit.compare_exchange_weak(Cur, I,
                                                     std::memory_order_relaxed))
              ;
            return false;
          }
          return true;
        });
    Meter.flushUnit();
  };

  auto Worker = [&] {
    for (size_t I = NextUnit.fetch_add(1); I < Units.size();
         I = NextUnit.fetch_add(1)) {
      if (BudgetExhausted.load(std::memory_order_relaxed))
        break;
      if (I > MinHitUnit.load(std::memory_order_relaxed))
        continue;
      RunUnit(I);
    }
  };

  if (Workers <= 1 || Units.size() <= 1) {
    Worker();
  } else {
    std::vector<std::thread> Pool;
    unsigned NumThreads = static_cast<unsigned>(
        std::min<size_t>(Workers, Units.size()));
    Pool.reserve(NumThreads);
    for (unsigned T = 0; T < NumThreads; ++T)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }

  if (Stats) {
    Stats->Skeletons += Skeletons.load();
    Stats->RbfCandidates = RbfCandidates.load();
    if (BudgetExhausted.load())
      Stats->BudgetExhausted = true;
  }
  return MinHitUnit.load();
}

unsigned searchWorkers(const SearchConfig &Cfg) {
  if (Cfg.Threads)
    return Cfg.Threads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

/// Runs the full (events × locations) sweep, returning the first hit of
/// \p TryCandidate in sequential enumeration order, for any thread count.
/// TryCandidate must be pure: it may not touch shared mutable state.
std::optional<SkeletonCex> shardedFirstHit(
    const SearchConfig &Cfg, SearchStats *Stats,
    const std::function<std::optional<SkeletonCex>(
        const CandidateExecution &, const ArmExecution &)> &TryCandidate) {
  unsigned Workers = searchWorkers(Cfg);
  std::atomic<bool> BudgetExhausted{false};
  for (unsigned N = Cfg.MinEvents; N <= Cfg.MaxEvents; ++N)
    for (unsigned L = 1; L <= Cfg.NumLocs; ++L) {
      std::vector<std::optional<SkeletonCex>> Hits;
      std::mutex HitsMutex;
      size_t Winner = runShardedPass(
          Cfg, N, L, Workers, Stats, BudgetExhausted,
          [&](size_t Unit, const CandidateExecution &Js,
              const ArmExecution &Arm) {
            std::optional<SkeletonCex> Hit = TryCandidate(Js, Arm);
            if (!Hit)
              return true;
            std::lock_guard<std::mutex> Lock(HitsMutex);
            if (Hits.size() <= Unit)
              Hits.resize(Unit + 1);
            Hits[Unit] = std::move(Hit);
            return false;
          });
      if (Winner != SIZE_MAX)
        return std::move(Hits[Winner]);
      if (BudgetExhausted.load())
        return std::nullopt;
    }
  return std::nullopt;
}

} // namespace

bool jsmm::forEachSkeletonCandidate(
    const SearchConfig &Cfg,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit,
    SearchStats *Stats) {
  // Sequential by contract: the visitation order is part of the API.
  std::atomic<uint64_t> Skeletons{0}, RbfCandidates{0};
  std::atomic<bool> BudgetExhausted{false};
  RbfMeter Meter{Stats ? &RbfCandidates : nullptr, &BudgetExhausted,
                 Cfg.MaxCandidates};
  Meter.beginUnit();
  bool Completed = true;
  for (unsigned N = Cfg.MinEvents; N <= Cfg.MaxEvents && Completed; ++N)
    for (unsigned L = 1; L <= Cfg.NumLocs && Completed; ++L) {
      std::vector<EventShape> Shape(N);
      Completed = enumerateShapes(Cfg, N, L, Shape, 0, -1, -1, &Skeletons,
                                  &Meter, Visit);
    }
  Meter.flushUnit();
  if (Stats) {
    Stats->Skeletons += Skeletons.load();
    Stats->RbfCandidates += RbfCandidates.load();
    if (BudgetExhausted.load())
      Stats->BudgetExhausted = true;
  }
  return Completed && !BudgetExhausted.load();
}

bool jsmm::armConsistentForSomeCo(const ArmExecution &X,
                                  ArmExecution *Witness) {
  return Armv8Model().allowsForSomeCo(X, Witness);
}

bool jsmm::existsInvalidTot(const CandidateExecution &CE, ModelSpec Spec,
                            Relation *TotOut, SolverConfig Solver) {
  return JsModel(Spec, Solver).refutableForSomeTot(CE, TotOut);
}

std::optional<SkeletonCex>
jsmm::searchArmCompilationCex(const SearchConfig &Cfg, SearchStats *Stats) {
  const TotSolver &Solver = totSolver(Cfg.Solver);
  std::atomic<uint64_t> ArmChecks{0};
  auto TryCandidate =
      [&](const CandidateExecution &Js,
          const ArmExecution &Arm) -> std::optional<SkeletonCex> {
    if (Cfg.ExcludeInitSynchronization) {
      for (const Event &R : Js.Events) {
        if (!R.isRead() || R.Ord != Mode::SeqCst)
          continue;
        bool OnlyInit = true;
        for (const RbfEdge &E : Js.Rbf)
          if (E.Reader == R.Id && Js.Events[E.Writer].Ord != Mode::Init)
            OnlyInit = false;
        if (OnlyInit)
          return std::nullopt; // would synchronize with Init: skip
      }
    }
    // Cheap necessary condition first: decide JS-side invalidity (in the
    // configured deadness mode), then look for an ARM witness. The witness
    // copy is deferred to the (rare) hit path.
    bool JsBad = false;
    Relation Tot;
    bool HasTot = false;
    switch (Cfg.Deadness) {
    case SearchConfig::DeadnessMode::Semantic:
      JsBad = isSemanticallyDead(Js, Cfg.Js, Solver);
      break;
    case SearchConfig::DeadnessMode::Syntactic:
      JsBad = existsSyntacticallyDeadTot(Js, Cfg.Js, &Tot, Solver);
      HasTot = JsBad;
      break;
    case SearchConfig::DeadnessMode::None:
      JsBad = existsInvalidTot(Js, Cfg.Js, &Tot, Cfg.Solver);
      HasTot = JsBad;
      break;
    }
    if (!JsBad)
      return std::nullopt;
    ArmChecks.fetch_add(1, std::memory_order_relaxed);
    ArmExecution Witness;
    if (!armConsistentForSomeCo(Arm, &Witness))
      return std::nullopt;
    SkeletonCex Cex;
    Cex.Js = Js;
    if (HasTot)
      Cex.Js.Tot = Tot;
    Cex.Arm = Witness;
    Cex.NumEvents = Js.numEvents() - 1; // exclude Init
    uint64_t Used = 0;
    for (const Event &E : Js.Events)
      if (E.Ord != Mode::Init)
        Used |= uint64_t(1) << E.Index;
    Cex.NumLocs = static_cast<unsigned>(__builtin_popcountll(Used));
    return Cex;
  };
  std::optional<SkeletonCex> Found = shardedFirstHit(Cfg, Stats, TryCandidate);
  if (Stats)
    Stats->ArmConsistencyChecks += ArmChecks.load();
  return Found;
}

std::optional<SkeletonCex> jsmm::searchScDrfCex(const SearchConfig &Cfg,
                                                SearchStats *Stats) {
  const TotSolver &Solver = totSolver(Cfg.Solver);
  auto TryCandidate =
      [&](const CandidateExecution &Js,
          const ArmExecution &Arm) -> std::optional<SkeletonCex> {
    (void)Arm;
    Relation Tot;
    if (!isValidForSomeTot(Js, Cfg.Js, &Tot, Solver))
      return std::nullopt;
    if (!isRaceFree(Js, Cfg.Js))
      return std::nullopt;
    if (isSequentiallyConsistent(Js))
      return std::nullopt;
    SkeletonCex Cex;
    Cex.Js = Js;
    Cex.Js.Tot = Tot;
    Cex.NumEvents = Js.numEvents() - 1;
    uint64_t Used = 0;
    for (const Event &E : Js.Events)
      if (E.Ord != Mode::Init)
        Used |= uint64_t(1) << E.Index;
    Cex.NumLocs = static_cast<unsigned>(__builtin_popcountll(Used));
    return Cex;
  };
  return shardedFirstHit(Cfg, Stats, TryCandidate);
}

BoundedCompilationReport
jsmm::boundedCompilationCheck(const SearchConfig &Cfg) {
  unsigned Workers = searchWorkers(Cfg);
  SearchStats Stats;
  std::atomic<bool> BudgetExhausted{false};
  std::atomic<uint64_t> ArmConsistent{0}, Failures{0};
  std::mutex FirstFailureMutex;
  // (pass index, unit index, in-unit order) of the earliest failure so
  // far; the sequential enumeration order, so FirstFailure is
  // deterministic for every thread count.
  std::pair<uint64_t, size_t> FirstFailureRank{~uint64_t(0), SIZE_MAX};
  std::optional<SkeletonCex> FirstFailure;

  uint64_t PassIdx = 0;
  for (unsigned N = Cfg.MinEvents;
       N <= Cfg.MaxEvents && !BudgetExhausted.load(); ++N)
    for (unsigned L = 1; L <= Cfg.NumLocs && !BudgetExhausted.load();
         ++L, ++PassIdx) {
      runShardedPass(
          Cfg, N, L, Workers, &Stats, BudgetExhausted,
          [&](size_t Unit, const CandidateExecution &Js,
              const ArmExecution &Arm) {
            // Enumerate every consistent coherence witness (the pruned
            // walk refutes inconsistent coherence subtrees on their
            // prefix) and verify the tot construction on each.
            ArmExecution Work = Arm;
            Work.Co = Work.computeGranules();
            forEachConsistentCoherenceCompletion(Work, [&] {
              ArmConsistent.fetch_add(1, std::memory_order_relaxed);
              TranslationResult TR;
              TR.Js = Js;
              TR.JsOfArm.resize(Work.numEvents());
              for (unsigned I = 0; I < Work.numEvents(); ++I)
                TR.JsOfArm[I] = I;
              Relation Tot;
              bool Ok = false;
              if (constructTot(TR, Work, &Tot)) {
                CandidateExecution WithTot = Js;
                WithTot.Tot = Tot;
                Ok = isValid(WithTot, Cfg.Js);
              }
              if (!Ok) {
                Failures.fetch_add(1, std::memory_order_relaxed);
                std::lock_guard<std::mutex> Lock(FirstFailureMutex);
                std::pair<uint64_t, size_t> Rank{PassIdx, Unit};
                if (Rank < FirstFailureRank) {
                  FirstFailureRank = Rank;
                  SkeletonCex F;
                  F.Js = Js;
                  F.Arm = Work;
                  F.NumEvents = Js.numEvents() - 1;
                  FirstFailure = std::move(F);
                }
              }
              return true;
            });
            return true;
          });
    }

  BoundedCompilationReport Report;
  Report.Skeletons = Stats.Skeletons;
  Report.RbfCandidates = Stats.RbfCandidates;
  Report.ArmConsistentExecutions = ArmConsistent.load();
  Report.ConstructionFailures = Failures.load();
  Report.FirstFailure = std::move(FirstFailure);
  return Report;
}
