//===- engine/ExecutionEngine.cpp -----------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "analysis/StaticAnalysis.h"
#include "analysis/StaticValues.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "litmus/PathEnum.h"
#include "obs/Obs.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/Str.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace jsmm;

unsigned ExecutionEngine::effectiveThreads() const {
  if (Cfg.Threads)
    return Cfg.Threads;
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 1;
}

bool OutcomeSummary::allows(const Outcome &O) const {
  return std::binary_search(Allowed.begin(), Allowed.end(), O);
}

std::vector<std::string> OutcomeSummary::outcomeStrings() const {
  std::vector<std::string> Out;
  Out.reserve(Allowed.size());
  for (const Outcome &O : Allowed)
    Out.push_back(O.toString());
  return Out;
}

//===----------------------------------------------------------------------===//
// Capacity checks
//===----------------------------------------------------------------------===//

namespace {

/// Emits the trace event \p Name with \p Fields, in order, when a trace
/// sink is installed.
void traceEvent(
    const char *Name,
    std::initializer_list<std::pair<const char *, JsonValue>> Fields) {
  obs::TraceSink *T = obs::trace();
  if (!T)
    return;
  JsonValue F = JsonValue::object();
  for (const auto &[Key, Value] : Fields)
    F.set(Key, Value);
  T->event(Name, std::move(F));
}

std::optional<std::string> capacityErrorFor(unsigned Bound, unsigned Cap) {
  if (Bound <= Cap)
    return std::nullopt;
  return "program too large (" + std::to_string(Bound) + " events > " +
         std::to_string(Cap) + ")";
}

unsigned targetEventBound(const CompiledTarget &CT) {
  unsigned Bound = CT.NumLocs;
  for (const std::vector<TargetInstr> &Body : CT.Threads)
    Bound += static_cast<unsigned>(Body.size());
  return Bound;
}

/// Throws the capacity diagnostic for the dynamic serving cap. Entry
/// points call this before touching the candidate space so a too-large
/// program fails with the program-level message rather than the
/// relation-level one.
template <typename ProgramT> void checkCapacity(const ProgramT &P) {
  if (std::optional<std::string> Error = ExecutionEngine::capacityError(P)) {
    traceEvent("capacity-reject", {{"error", *Error}});
    if (obs::metricsEnabled())
      obs::registry().counter("engine.capacity_rejects").add(1);
    throw CapacityError(*Error);
  }
}

} // namespace

std::optional<std::string> ExecutionEngine::capacityError(const Program &P) {
  return capacityErrorFor(programEventUpperBound(P), Relation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const ArmProgram &P) {
  return capacityErrorFor(armProgramEventUpperBound(P), ArmMaxEvents);
}

std::optional<std::string>
ExecutionEngine::capacityError(const CompiledTarget &CT) {
  return capacityErrorFor(targetEventBound(CT), Relation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const UniProgram &P) {
  return capacityErrorFor(uniProgramEventBound(P), Relation::MaxSize);
}

namespace {

/// One unit of sharded work: the base of one control-flow combination,
/// optionally restricted to the K-th eligible writer for the first byte of
/// the first read (so a single combination with a large justification
/// tree still splits across workers).
struct WorkItem {
  size_t Base = 0;
  int Writer = -1; ///< -1: all writers
};

/// Runs \p Body over \p NumItems items on \p Threads workers. Items run
/// inline, in order, until they have taken a millisecond, so a call whose
/// items are cheap starts no thread: on a loaded machine each hand-off to
/// a new thread waits for the scheduler, which costs more than such items
/// take. Workers claim the rest from an atomic counter; \p Body must only
/// touch state owned by its item index.
void runSharded(size_t NumItems, unsigned Threads,
                const std::function<void(size_t)> &Body) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline = Clock::now() + std::chrono::milliseconds(1);
  size_t First = 0;
  while (First < NumItems && (Threads <= 1 || Clock::now() < Deadline))
    Body(First++);
  if (First == NumItems)
    return;
  std::atomic<size_t> Next{First};
  // Worker threads inherit the spawning thread's solver-activity sink so
  // per-job attribution (the service installs one sink per job) survives
  // the engine's own sharding; the sink's fields are atomic.
  SolverActivitySink *ParentSink = currentSolverActivitySink();
  auto Worker = [&, ParentSink] {
    setCurrentSolverActivitySink(ParentSink);
    for (size_t I = Next.fetch_add(1); I < NumItems; I = Next.fetch_add(1))
      Body(I);
  };
  std::vector<std::thread> Pool;
  unsigned N = static_cast<unsigned>(
      std::min<size_t>(Threads, NumItems - First));
  Pool.reserve(N);
  try {
    for (unsigned T = 0; T < N; ++T)
      Pool.emplace_back(Worker);
  } catch (...) {
    // A joinable std::thread destroyed during unwinding would terminate
    // the process; the started workers drain the items before joining.
    for (std::thread &T : Pool)
      T.join();
    throw;
  }
  for (std::thread &T : Pool)
    T.join();
}

//===----------------------------------------------------------------------===//
// The reads-from walk
//===----------------------------------------------------------------------===//

/// An effort counter of EngineStats.
using Counter = uint64_t EngineStats::*;

/// Counts one skipped writer choice or cut subtree into \p C of \p St,
/// when there is one. \returns true, so a hook can skip and count at once.
bool count(EngineStats *St, Counter C) {
  if (St)
    ++(St->*C);
  return true;
}

/// The one reads-from walk behind every event language: the reads of a
/// base in event order, each read's units in order (a byte of a JavaScript
/// or ARMv8 read, the one cell of a target read), and for each unit its
/// eligible writers in event order. The policy (a language's core)
/// supplies the hooks as compile-time calls, each given the base: events,
/// firstUnit/endUnit and eligible (static, shared with firstWriters);
/// skip, whether to skip a writer (Pos indexes the static and sleep
/// masks); take/drop, which record and undo a choice; valueAllowed, the
/// path constraints of a complete read; optionally complete/retract, which
/// record what a complete read adds to state the policy keeps along the
/// walk and undo it on backtrack; refuted, the monotone admission cut
/// after a complete read; and leaf, which returns false to stop the walk.
/// skip and refuted count what they skip and cut into the EngineStats
/// they are given (null: nothing counts).
/// \p FirstWriterOnly >= 0 restricts the first unit of the first read to
/// its K-th eligible writer (the sharded driver's work items).
template <typename PolicyT> class Justifier {
public:
  using BaseT = typename PolicyT::BaseT;
  using EventT = typename PolicyT::EventT;
  using VisitFn = typename PolicyT::VisitFn;

  /// \p St, when non-null, receives the skip and cut counts.
  Justifier(const PolicyT &P, BaseT &B, const VisitFn &Visit,
            int FirstWriterOnly, EngineStats *St)
      : P(P), B(B), Visit(Visit), Events(PolicyT::events(B)),
        FirstWriterOnly(FirstWriterOnly), St(St) {}

  /// \returns false if the leaf stopped the walk.
  bool run() { return justifyRead(0); }

private:
  bool justifyRead(size_t ReadIdx) {
    if (ReadIdx == B.Reads.size())
      return P.leaf(B, Visit);
    return justifyUnit(ReadIdx,
                       PolicyT::firstUnit(Events[B.Reads[ReadIdx]]));
  }

  bool justifyUnit(size_t ReadIdx, unsigned Unit) {
    EventT &R = Events[B.Reads[ReadIdx]];
    if (Unit == PolicyT::endUnit(R)) {
      if (!P.valueAllowed(B, R))
        return true;
      constexpr bool Keeps = requires { P.complete(B, ReadIdx); };
      if constexpr (Keeps)
        P.complete(B, ReadIdx);
      bool Continue = P.refuted(B, ReadIdx, St) || justifyRead(ReadIdx + 1);
      if constexpr (Keeps)
        P.retract(B, ReadIdx);
      return Continue;
    }
    unsigned WriterPos = 0;
    for (const EventT &W : Events) {
      if (!PolicyT::eligible(W, R, Unit))
        continue;
      unsigned ThisPos = WriterPos++;
      if (FirstWriterOnly >= 0 && ReadIdx == 0 &&
          Unit == PolicyT::firstUnit(R) &&
          ThisPos != static_cast<unsigned>(FirstWriterOnly))
        continue;
      if (P.skip(B, ReadIdx, Unit, R, W, ThisPos, St))
        continue;
      PolicyT::take(B, Unit, R, W);
      bool Continue = justifyUnit(ReadIdx, Unit + 1);
      PolicyT::drop(B, R, W);
      if (!Continue)
        return false;
    }
    return true;
  }

  const PolicyT &P;
  BaseT &B;
  const VisitFn &Visit;
  std::vector<EventT> &Events;
  int FirstWriterOnly;
  EngineStats *St;
};

/// \returns the number of writers eligible for the first unit of the
/// first read of base \p B: the sharded driver's work items index them in
/// the order the walk tries them.
template <typename PolicyT>
unsigned firstWriters(const typename PolicyT::BaseT &B) {
  if (B.Reads.empty())
    return 0;
  const auto &Events = PolicyT::events(B);
  const auto &R = Events[B.Reads[0]];
  unsigned Count = 0;
  for (const auto &W : Events)
    Count += PolicyT::eligible(W, R, PolicyT::firstUnit(R));
  return Count;
}

//===----------------------------------------------------------------------===//
// The shared enumeration driver
//===----------------------------------------------------------------------===//

/// The per-thread control-flow paths of a program, with mixed-radix
/// indexing of their combinations (last thread fastest, matching the
/// seed's recursion order). One template serves the JavaScript and ARMv8
/// event languages; compiled targets are straight-line.
template <typename PathT> struct PathSpace {
  std::vector<std::vector<PathT>> PerThread;
  size_t Combos = 1;

  template <typename ProgramT, typename UnfoldFn>
  PathSpace(const ProgramT &P, UnfoldFn Unfold) {
    for (unsigned T = 0; T < P.numThreads(); ++T)
      PerThread.push_back(Unfold(P.threadBody(T)));
    for (const std::vector<PathT> &Paths : PerThread)
      Combos *= Paths.size();
  }

  /// Decomposes \p Idx into per-thread path indices.
  std::vector<size_t> indices(size_t Idx) const {
    std::vector<size_t> C(PerThread.size());
    for (size_t T = PerThread.size(); T-- > 0;) {
      C[T] = Idx % PerThread[T].size();
      Idx /= PerThread[T].size();
    }
    return C;
  }

  std::vector<const PathT *> chosen(const std::vector<size_t> &Idx) const {
    std::vector<const PathT *> C(PerThread.size());
    for (size_t T = 0; T < C.size(); ++T)
      C[T] = &PerThread[T][Idx[T]];
    return C;
  }
};

/// The valid (JS) or consistent (ARMv8, target) candidate count of an
/// enumeration result.
template <typename ResultT> uint64_t &validCount(ResultT &R) {
  if constexpr (requires { R.ValidCandidates; })
    return R.ValidCandidates;
  else
    return R.ConsistentCandidates;
}

/// Counts candidate \p X into \p Into and keeps it as its outcome's
/// witness when \p M admits it. Outcomes that already have a witness skip
/// the model check.
template <typename ResultT, typename ModelT, typename ExecT>
void accumulate(ResultT &Into, const ModelT &M, const ExecT &X,
                const Outcome &O) {
  ++Into.CandidatesConsidered;
  if (Into.Allowed.count(O) || !M.allows(X))
    return;
  Into.Allowed.emplace(O, X);
  ++validCount(Into);
}

/// The witness-free result of the JavaScript outcome door: the allowed
/// outcomes and the two counters summarize() keeps of an
/// EnumerationResult, gathered with no tot witness and no execution copy.
struct OutcomeTally {
  std::set<Outcome> Allowed;
  uint64_t CandidatesConsidered = 0;
  uint64_t ValidCandidates = 0;
};

/// Merges one work item's result into \p Into (items in order, so the
/// first witness of an outcome wins).
template <typename ResultT> void mergeItem(ResultT &Into, ResultT &Item) {
  Into.CandidatesConsidered += Item.CandidatesConsidered;
  validCount(Into) += validCount(Item);
  for (auto &[O, Witness] : Item.Allowed)
    Into.Allowed.emplace(O, std::move(Witness));
}

void mergeItem(OutcomeTally &Into, OutcomeTally &Item) {
  Into.CandidatesConsidered += Item.CandidatesConsidered;
  Into.ValidCandidates += Item.ValidCandidates;
  Into.Allowed.merge(Item.Allowed);
}

/// Visits every candidate of \p Core in order, one base at a time.
template <typename CoreT>
bool walkCore(const CoreT &Core, EngineStats *St,
              const typename CoreT::VisitFn &Visit) {
  return Core.forEachBase(St, [&](typename CoreT::BaseT &B) {
    return Justifier(Core, B, Visit, /*FirstWriterOnly=*/-1, St).run();
  });
}

/// The one enumeration driver behind the JavaScript, ARMv8 and target
/// cores. A core supplies its bases (one per explored control-flow
/// combination) and is the policy of its language's reads-from walk;
/// \p M decides which candidates count as valid.
///
/// Sequential runs walk one base at a time with global outcome
/// deduplication; WorkItems is the number of path combinations. Sharded
/// runs split every base across its first read's writer choices into work
/// items (WorkItems of them) with item-local results and counters, merged
/// in item order. So the outcome set, CandidatesConsidered and the
/// pruning counters are identical for every thread count; ValidCandidates
/// may differ, because outcome deduplication is per item. A base whose
/// first read has at most one writer is a single item. Under reduction,
/// slept first-writer items simply produce nothing: the rf sleep-set keys
/// are fixed per base, so sharding cannot change what is explored.
template <typename CoreT, typename ModelT,
          typename ResultT = typename CoreT::ResultT>
ResultT enumerateCore(const CoreT &Core, const ModelT &M, unsigned Threads,
                      EngineStats &Stats) {
  using BaseT = typename CoreT::BaseT;
  if (Threads <= 1) {
    ResultT Result;
    Stats.WorkItems = Core.Combos;
    walkCore(Core, &Stats, [&](auto &X, const Outcome &O) {
      accumulate(Result, M, X, O);
      return true;
    });
    return Result;
  }

  std::vector<BaseT> Bases;
  std::vector<WorkItem> Items;
  Core.forEachBase(&Stats, [&](BaseT &B) {
    unsigned Writers = firstWriters<CoreT>(B);
    if (!Writers)
      Items.push_back({Bases.size(), -1});
    for (unsigned K = 0; K < Writers; ++K)
      Items.push_back({Bases.size(), static_cast<int>(K)});
    Bases.push_back(std::move(B));
    return true;
  });
  Stats.WorkItems = Items.size();

  std::vector<ResultT> PerItem(Items.size());
  std::vector<EngineStats> PerItemStats(Items.size());
  runSharded(Items.size(), Threads, [&](size_t I) {
    BaseT B = Bases[Items[I].Base]; // worker-private: the walk mutates it
    Justifier(
        Core, B,
        [&](auto &X, const Outcome &O) {
          accumulate(PerItem[I], M, X, O);
          return true;
        },
        Items[I].Writer, &PerItemStats[I])
        .run();
  });

  ResultT Result;
  for (size_t I = 0; I < Items.size(); ++I) {
    mergeItem(Result, PerItem[I]);
    // The base builder counted WorkItems and StaticPathsPruned already.
    Stats.PrunedSubtrees += PerItemStats[I].PrunedSubtrees;
    Stats.SleptBranches += PerItemStats[I].SleptBranches;
    Stats.StaticRfPruned += PerItemStats[I].StaticRfPruned;
  }
  return Result;
}

/// \returns the outcome-level summary of an enumeration result.
template <typename ResultT> OutcomeSummary summarize(ResultT R) {
  OutcomeSummary S;
  S.CandidatesConsidered = R.CandidatesConsidered;
  S.ValidCandidates = validCount(R);
  S.Allowed.reserve(R.Allowed.size());
  for (const auto &[O, Witness] : R.Allowed) {
    (void)Witness;
    S.Allowed.push_back(O);
  }
  return S;
}

OutcomeSummary summarize(const OutcomeTally &R) {
  OutcomeSummary S;
  S.CandidatesConsidered = R.CandidatesConsidered;
  S.ValidCandidates = R.ValidCandidates;
  S.Allowed.assign(R.Allowed.begin(), R.Allowed.end());
  return S;
}

//===----------------------------------------------------------------------===//
// Value-aware static pruning (EngineConfig::StaticFastPath)
//===----------------------------------------------------------------------===//

/// [read idx][byte offset][eligible-writer position] -> allowed flag. The
/// writer positions index the eligible writers in the order the walk
/// tries them; the rf sleep-set keys' explore mask has the same shape.
using StaticAllowMask = std::vector<std::vector<std::vector<uint8_t>>>;

/// Per thread, per path index: 1 iff StaticValues::pathFeasible. Dropping
/// an infeasible combination is sound: every candidate on it dies at the
/// contradicted read's constraintsAllow check before being emitted, so
/// its valid-outcome contribution is empty.
std::vector<std::vector<uint8_t>>
feasiblePaths(const PathSpace<ThreadPath> &Space,
              const analysis::StaticValues &SV) {
  std::vector<std::vector<uint8_t>> F(Space.PerThread.size());
  for (size_t T = 0; T < Space.PerThread.size(); ++T) {
    F[T].reserve(Space.PerThread[T].size());
    for (const ThreadPath &Path : Space.PerThread[T])
      F[T].push_back(SV.pathFeasible(Path) ? 1 : 0);
  }
  return F;
}

bool comboFeasible(const std::vector<size_t> &Idx,
                   const std::vector<std::vector<uint8_t>> &Feasible) {
  for (size_t T = 0; T < Idx.size(); ++T)
    if (!Feasible[T][Idx[T]])
      return false;
  return true;
}

/// The materialised skeleton of one path combination: events, sb, and the
/// bookkeeping the walk needs.
struct JsBase {
  CandidateExecution CE;
  std::vector<EventId> Reads;
  std::map<EventId, unsigned> RegOfEvent;
  std::vector<const ThreadPath *> Paths;
  /// The static writer-allow mask; empty unless static pruning is on.
  StaticAllowMask Allow;
  /// The rf sleep-set keys' explore mask, in the same shape; empty unless
  /// reducing on a base the keys apply to (see buildRfKeys).
  StaticAllowMask RfKeys;
  /// rf, sw and hb of the reads completed so far, under the judging
  /// model's sw definition: CE.derived(Def) of the current prefix. Before
  /// any read completes, rf is empty, sw is asw and hb is hb₀ = (sb ∪ asw
  /// ∪ init overlap)⁺. Empty when no model judges the walk.
  DerivedTriple D;
  /// What JsCore::complete added, for retract: the new sw edges, and the
  /// hb rows it changed with their old contents.
  std::vector<std::pair<EventId, EventId>> SwAdded;
  std::vector<std::pair<EventId, BitSet>> HbRows;
  /// Per read index, the sizes of SwAdded and HbRows before the read
  /// completed.
  std::vector<std::pair<size_t, size_t>> Marks;
};

JsBase buildJsBase(const Program &P, std::vector<const ThreadPath *> Chosen) {
  JsBase B;
  B.Paths = std::move(Chosen);

  std::vector<Event> Events;
  // One Init event per buffer, carrying any declared initial bytes.
  for (unsigned Buf = 0; Buf < P.bufferSizes().size(); ++Buf) {
    EventId Id = static_cast<EventId>(Events.size());
    if (P.initBytes(Buf).empty())
      Events.push_back(makeInit(Id, P.bufferSizes()[Buf], Buf));
    else
      Events.push_back(makeInit(Id, P.initBytes(Buf), Buf));
  }
  // Thread events, in path order.
  std::vector<std::vector<EventId>> ThreadEvents(P.numThreads());
  for (unsigned T = 0; T < B.Paths.size(); ++T) {
    for (const Instr *I : B.Paths[T]->Accesses) {
      EventId Id = static_cast<EventId>(Events.size());
      const Acc &A = I->Access;
      Event E;
      switch (I->K) {
      case Instr::Kind::Load:
        E = makeRead(Id, static_cast<int>(T), A.Ord, A.Offset, A.Width,
                     /*Value=*/0, A.TearFree, A.Block);
        B.RegOfEvent[Id] = I->Dst;
        break;
      case Instr::Kind::Store:
        E = makeWrite(Id, static_cast<int>(T), A.Ord, A.Offset, A.Width,
                      I->Value, A.TearFree, A.Block);
        break;
      case Instr::Kind::Rmw:
        E = makeRMW(Id, static_cast<int>(T), A.Offset, A.Width,
                    /*ReadValue=*/0, I->Value, A.Block);
        B.RegOfEvent[Id] = I->Dst;
        break;
      default:
        assert(false && "conditionals never materialise as events");
      }
      Events.push_back(E);
      ThreadEvents[T].push_back(Id);
    }
  }
  B.CE = CandidateExecution(std::move(Events));
  for (const std::vector<EventId> &Seq : ThreadEvents)
    for (size_t I = 0; I < Seq.size(); ++I)
      for (size_t J = I + 1; J < Seq.size(); ++J)
        B.CE.Sb.set(Seq[I], Seq[J]);
  for (const Event &E : B.CE.Events)
    if (E.isRead())
      B.Reads.push_back(E.Id);
  return B;
}

/// The JavaScript event language of the reads-from walk, shared by JsCore
/// and the wait/notify walk (WnPolicy), whose bases both hold an execution
/// CE and its Reads: a unit per read byte, whose eligible writers are the
/// other events of the read's block that write the byte, and an rbf edge
/// plus the read byte as the record of a choice.
struct JsLanguage {
  using EventT = Event;

  template <typename BaseT> static auto &events(BaseT &B) {
    return B.CE.Events;
  }
  static unsigned firstUnit(const Event &R) { return R.readBegin(); }
  static unsigned endUnit(const Event &R) { return R.readEnd(); }
  static bool eligible(const Event &W, const Event &R, unsigned Loc) {
    return W.Id != R.Id && W.Block == R.Block && W.writesByte(Loc);
  }
  template <typename BaseT>
  static void take(BaseT &B, unsigned Loc, Event &R, const Event &W) {
    B.CE.Rbf.push_back({Loc, W.Id, R.Id});
    R.ReadBytes[Loc - R.Index] = W.writtenByteAt(Loc);
  }
  template <typename BaseT>
  static void drop(BaseT &B, Event &, const Event &) {
    B.CE.Rbf.pop_back();
  }
};

/// Builds the static writer-allow mask of one JS base from the value
/// analysis: a writer is masked off when it falls outside the read's
/// may-rf candidate set, or when its written byte contradicts one of the
/// path's MustEqual constraints on the read's register (any such
/// justification is cut by constraintsAllow the moment the read
/// completes, so skipping it up front loses nothing — not even a counted
/// candidate). Event-to-access mapping replays buildJsBase's event order:
/// one Init per buffer, then each thread's path accesses in sequence.
StaticAllowMask buildJsStaticAllow(const analysis::StaticValues &SV,
                                   const JsBase &B) {
  std::vector<int> AccOf(B.CE.Events.size(), -1);
  size_t Pos = 0;
  while (Pos < B.CE.Events.size() && B.CE.Events[Pos].Ord == Mode::Init)
    ++Pos;
  for (unsigned T = 0; T < B.Paths.size(); ++T)
    for (const Instr *I : B.Paths[T]->Accesses)
      AccOf[Pos++] = SV.accessOf(I);
  assert(Pos == B.CE.Events.size() && "event/access replay out of sync");

  StaticAllowMask Allow(B.Reads.size());
  for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
    const Event &R = B.CE.Events[B.Reads[RI]];
    assert(AccOf[R.Id] >= 0 && "read event of an unanalysed access");
    const analysis::ReadMayRf *MR =
        SV.readMayRf(static_cast<unsigned>(AccOf[R.Id]));
    assert(MR && "read event mapped to a non-read access");

    // Per-byte required values from the path's MustEqual constraints on
    // the read's register; Impossible when the constraints conflict or a
    // required value does not fit the read's width.
    unsigned Width = R.readEnd() - R.readBegin();
    unsigned Reg = B.RegOfEvent.at(R.Id);
    std::vector<int> Req(Width, -1);
    bool Impossible = false;
    for (const RegConstraint &Ct : B.Paths[R.Thread]->Constraints) {
      if (!Ct.MustEqual || Ct.Reg != Reg)
        continue;
      if (Width < 8 && (Ct.Value >> (8 * Width)) != 0) {
        Impossible = true;
        break;
      }
      for (unsigned K = 0; K < Width; ++K) {
        int Byte = static_cast<uint8_t>(Ct.Value >> (8 * K));
        if (Req[K] >= 0 && Req[K] != Byte) {
          Impossible = true;
          break;
        }
        Req[K] = Byte;
      }
      if (Impossible)
        break;
    }

    Allow[RI].resize(Width);
    for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc) {
      unsigned K = Loc - R.readBegin();
      const analysis::MayRfByte &MB = MR->Bytes[K];
      std::vector<uint8_t> &Mask = Allow[RI][K];
      for (const Event &W : B.CE.Events) {
        if (!JsLanguage::eligible(W, R, Loc))
          continue;
        bool Ok = !Impossible;
        if (Ok) {
          if (W.Ord == Mode::Init)
            Ok = MB.Init;
          else
            Ok = std::binary_search(MB.Writers.begin(), MB.Writers.end(),
                                    static_cast<unsigned>(AccOf[W.Id]));
        }
        if (Ok && Req[K] >= 0 && W.writtenByteAt(Loc) != Req[K])
          Ok = false;
        Mask.push_back(Ok ? 1 : 0);
      }
    }
  }
  return Allow;
}

/// The rf sleep-set keys of one JS base under \p Red, as an explore mask
/// in the static mask's shape (empty when the keys do not apply). Two
/// writer choices for the same read byte are interchangeable when every
/// input the model's verdict can depend on is equal. The derived hb is
/// static — equal for every rbf choice — iff sw is forced empty, i.e.
/// there is no SeqCst event at all (sw requires a SeqCst reader; RMWs are
/// SeqCst by construction) and asw is empty; it is then the base's hb₀.
/// Under that precondition every SC rule is vacuous (each needs an sw
/// pair or a SeqCst intervening event) and the solver's tot problem
/// carries no constraints, so a candidate's verdict is a function of,
/// per rbf edge: the byte value read, the static hb(R,W) bit (HBC2), the
/// static "newer write hb-between" bit (HBC3), and the writer's
/// contribution to the tear-free count. Writers agreeing on all four are
/// keyed together and only the first is explored — the skipped subtrees
/// produce byte-identical candidates, verdicts, and outcomes.
StaticAllowMask buildRfKeys(const ModelSpec &Red, const JsBase &B) {
  const CandidateExecution &CE = B.CE;
  if (!CE.Asw.empty() ||
      std::any_of(CE.Events.begin(), CE.Events.end(),
                  [](const Event &E) { return E.Ord == Mode::SeqCst; }))
    return {};
  const Relation &Hb = B.D.Hb; // no read has completed: hb₀

  StaticAllowMask Explore(B.Reads.size());
  for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
    const Event &R = CE.Events[B.Reads[RI]];

    // The writers the tear-free rule would count for R, over all byte
    // choices: tear-free writers of the exact range (plus Init under the
    // Strong rule). With at most one such writer the rule cannot fail,
    // so tearing does not discriminate writers for this read.
    auto TearCounts = [&](const Event &W) {
      if (!R.TearFree || !W.TearFree)
        return false;
      return sameWriteReadRange(W, R) ||
             (Red.Tear == TearRuleKind::Strong &&
              W.Ord == Mode::Init);
    };
    unsigned CountingWriters = 0;
    for (const Event &W : CE.Events)
      if (W.Id != R.Id && W.Block == R.Block && TearCounts(W) &&
          W.writeBegin() < R.readEnd() && R.readBegin() < W.writeEnd())
        ++CountingWriters;
    bool TearDiscriminates = CountingWriters > 1;

    Explore[RI].resize(R.readEnd() - R.readBegin());
    for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc) {
      // A writer's key: value, HBC2, HBC3 and tear-free contribution.
      using Key = std::tuple<uint8_t, bool, bool, unsigned>;
      std::vector<Key> Keys;
      std::vector<uint8_t> &Mask = Explore[RI][Loc - R.readBegin()];
      for (const Event &W : CE.Events) {
        if (!JsLanguage::eligible(W, R, Loc))
          continue;
        // HBC3 mirrors checkHbConsistency3 exactly, including its
        // block-agnostic writesByte scan.
        bool Hbc3 = std::any_of(
            CE.Events.begin(), CE.Events.end(), [&](const Event &C) {
              return Hb.get(W.Id, C.Id) && Hb.get(C.Id, R.Id) &&
                     C.writesByte(Loc);
            });
        Key K(W.writtenByteAt(Loc), Hb.get(R.Id, W.Id), Hbc3,
              TearDiscriminates && TearCounts(W) ? W.Id + 1 : 0);
        Mask.push_back(std::find(Keys.begin(), Keys.end(), K) == Keys.end());
        Keys.push_back(K);
      }
    }
  }
  return Explore;
}

/// The JavaScript core of the enumeration driver: one base per path
/// combination, minus (and counting) the statically infeasible ones under
/// a value analysis. As the policy of the reads-from walk it skips
/// writers by the static may-rf mask, then by the rf sleep-set keys. With
/// a model M it keeps the derived relations along the walk (JsBase::D):
/// a complete read checks its path's register constraints, then adds its
/// rf and sw edges, closing each new sw edge into hb in place, and, on
/// every read but the last, meets the model's tot-independent admission
/// (when pruning); retract undoes the read's additions. The leaf emits the
/// outcome with the base, whose D is the leaf's derived triple.
struct JsCore : JsLanguage {
  using BaseT = JsBase;
  using ResultT = EnumerationResult;
  using VisitFn = std::function<bool(JsBase &, const Outcome &)>;

  const Program &P;
  /// The model judging the leaves; null for the unjudged candidate walk,
  /// which keeps no derived relations.
  const JsModel *M;
  bool Prune;
  /// The spec the rf sleep-set keys read; null unless reducing.
  const ModelSpec *Red;
  const analysis::StaticValues *SV;
  PathSpace<ThreadPath> Space;
  size_t Combos;
  /// Called at every admitted prefix (see forEachAdmittedCandidate).
  const std::function<void(const CandidateExecution &,
                           const DerivedTriple &)> *OnPrefix = nullptr;

  JsCore(const Program &P, const JsModel *M, bool Prune,
         const ModelSpec *Red = nullptr,
         const analysis::StaticValues *SV = nullptr)
      : P(P), M(M), Prune(M && Prune), Red(Red), SV(SV),
        Space(P, enumeratePaths), Combos(Space.Combos) {
    assert((!Red || M) && "the rf sleep-set keys read the base's hb₀");
  }

  template <typename FnT> bool forEachBase(EngineStats *St, FnT &&Fn) const {
    std::vector<std::vector<uint8_t>> Feasible;
    if (SV)
      Feasible = feasiblePaths(Space, *SV);
    for (size_t C = 0; C < Space.Combos; ++C) {
      std::vector<size_t> Idx = Space.indices(C);
      if (SV && !comboFeasible(Idx, Feasible)) {
        // Counted by the thread that builds bases, so the counter is
        // deterministic across Threads.
        if (St)
          ++St->StaticPathsPruned;
        continue;
      }
      BaseT B = buildJsBase(P, Space.chosen(Idx));
      if (M) {
        const CandidateExecution &CE = B.CE;
        B.D = {Relation(CE.numEvents()), CE.Asw,
               CE.happensBeforeFromSw(CE.Asw)};
        B.Marks.resize(B.Reads.size());
      }
      if (SV)
        B.Allow = buildJsStaticAllow(*SV, B);
      if (Red)
        B.RfKeys = buildRfKeys(*Red, B);
      if (!Fn(B))
        return false;
    }
    return true;
  }

  bool skip(const JsBase &B, size_t ReadIdx, unsigned Loc, const Event &R,
            const Event &, unsigned Pos, EngineStats *St) const {
    unsigned K = Loc - R.readBegin();
    // Static may-rf pruning: writers outside the read's candidate set
    // only produce model-invalid or constraint-refuted candidates
    // (StaticValues' exclusion rules are implied by every backend's
    // validity axioms), so the subtree cannot contribute an outcome.
    // Checked before the sleep sets: an excluded writer's whole rf-key
    // class is excluded with it (the keys subsume the exclusion bits),
    // so sleeping siblings never rely on a skipped representative.
    if (!B.Allow.empty() && !B.Allow[ReadIdx][K][Pos])
      return count(St, &EngineStats::StaticRfPruned);
    if (!B.RfKeys.empty() && !B.RfKeys[ReadIdx][K][Pos])
      return count(St, &EngineStats::SleptBranches);
    return false;
  }
  bool valueAllowed(const JsBase &B, const Event &R) const {
    return constraintsAllow(*B.Paths[R.Thread], B.RegOfEvent.at(R.Id),
                            valueOfBytes(R.ReadBytes));
  }

  /// The rbf edges of read \p ReadIdx, which the walk pushed last.
  static std::span<const RbfEdge> rbfOf(const JsBase &B, size_t ReadIdx) {
    const Event &R = B.CE.Events[B.Reads[ReadIdx]];
    size_t Width = R.readEnd() - R.readBegin();
    return {B.CE.Rbf.data() + B.CE.Rbf.size() - Width, Width};
  }
  /// Adds read \p ReadIdx's rf edges and its sw edges under the model's sw
  /// definition. The Init special case needs the read's whole rf column,
  /// which is final now.
  void complete(JsBase &B, size_t ReadIdx) const {
    if (!M)
      return;
    const std::vector<Event> &Ev = B.CE.Events;
    const Event &R = Ev[B.Reads[ReadIdx]];
    B.Marks[ReadIdx] = {B.SwAdded.size(), B.HbRows.size()};
    bool OnlyInit = true;
    for (const RbfEdge &E : rbfOf(B, ReadIdx)) {
      B.D.Rf.set(E.Writer, R.Id);
      OnlyInit = OnlyInit && Ev[E.Writer].Ord == Mode::Init;
    }
    if (R.Ord != Mode::SeqCst)
      return;
    for (const RbfEdge &E : rbfOf(B, ReadIdx))
      if (synchronizes(Ev[E.Writer], R, M->spec().Sw, OnlyInit))
        addSw(B, E.Writer, R.Id);
  }
  /// Adds the sw edge \p W → \p R and closes it into hb in place. The
  /// edge may be there already: a writer comes once per byte it gives R,
  /// and asw may hold it.
  static void addSw(JsBase &B, EventId W, EventId R) {
    if (B.D.Sw.get(W, R))
      return;
    B.D.Sw.set(W, R);
    B.SwAdded.push_back({W, R});
    B.D.Hb.addClosedEdge(W, R, [&](unsigned E, const BitSet &Row) {
      B.HbRows.push_back({E, Row});
    });
  }
  /// Undoes complete(B, ReadIdx).
  void retract(JsBase &B, size_t ReadIdx) const {
    if (!M)
      return;
    auto [SwMark, HbMark] = B.Marks[ReadIdx];
    for (; B.HbRows.size() > HbMark; B.HbRows.pop_back())
      B.D.Hb.assignRow(B.HbRows.back().first, B.HbRows.back().second);
    for (; B.SwAdded.size() > SwMark; B.SwAdded.pop_back())
      B.D.Sw.clear(B.SwAdded.back().first, B.SwAdded.back().second);
    for (const RbfEdge &E : rbfOf(B, ReadIdx))
      B.D.Rf.clear(E.Writer, E.Reader);
  }
  /// The monotone admission after read \p ReadIdx completes: no completion
  /// can be valid once HBC2, HBC3 or Tear-Free Reads fails on the prefix,
  /// or hb is cyclic (HBC1 requires tot ⊇ hb), because rf, sw and hb only
  /// grow as later reads complete. Every earlier read passed it under the
  /// hb of its time, and a read's rf column is final once complete, so
  /// unless this read grew hb only its own edges can fail.
  bool refuted(const JsBase &B, size_t ReadIdx, EngineStats *St) const {
    if (Prune && ReadIdx + 1 < B.Reads.size() && !admits(B, ReadIdx))
      return count(St, &EngineStats::PrunedSubtrees);
    if (OnPrefix)
      (*OnPrefix)(B.CE, B.D);
    return false;
  }
  bool admits(const JsBase &B, size_t ReadIdx) const {
    const CandidateExecution &CE = B.CE;
    const Relation &Hb = B.D.Hb;
    if (!tearFreeHolds(CE, B.D.Rf, CE.Events[B.Reads[ReadIdx]],
                       M->spec().Tear))
      return false;
    bool Grew = B.HbRows.size() > B.Marks[ReadIdx].second;
    if (Grew && !Hb.isIrreflexive())
      return false;
    std::span<const RbfEdge> Edges =
        Grew ? std::span<const RbfEdge>(CE.Rbf) : rbfOf(B, ReadIdx);
    for (const RbfEdge &E : Edges)
      if (Hb.get(E.Reader, E.Writer) || !hbc3Holds(CE, Hb, E))
        return false;
    return true;
  }
  bool leaf(JsBase &B, const VisitFn &Visit) const {
    Outcome O;
    for (const auto &[Id, Reg] : B.RegOfEvent)
      O.add(B.CE.Events[Id].Thread, Reg,
            valueOfBytes(B.CE.Events[Id].ReadBytes));
    return Visit(B, O);
  }
};

/// Counts the JavaScript leaf \p B into \p Into and keeps it, with its tot
/// witness, as its outcome's witness when \p M admits it on the walk's
/// derived relations. Outcomes that already have a witness skip the
/// model check.
void accumulate(EnumerationResult &Into, const JsModel &M, const JsBase &B,
                const Outcome &O) {
  ++Into.CandidatesConsidered;
  if (Into.Allowed.count(O))
    return;
  Relation Tot;
  if (!M.allows(B.CE, B.D, &Tot))
    return;
  Into.Allowed.emplace(O, B.CE).first->second.Tot = std::move(Tot);
  ++Into.ValidCandidates;
}

/// The same for the outcome door: no tot witness, no execution copy.
void accumulate(OutcomeTally &Into, const JsModel &M, const JsBase &B,
                const Outcome &O) {
  ++Into.CandidatesConsidered;
  if (Into.Allowed.count(O) || !M.allows(B.CE, B.D))
    return;
  Into.Allowed.insert(O);
  ++Into.ValidCandidates;
}

/// The wait/notify policy of the reads-from walk (forEachJustification),
/// over one execution: no writer skips and no admission cut; a complete
/// read checks the caller's value constraint, and the leaf visits the
/// execution.
struct WnPolicy : JsLanguage {
  struct BaseT {
    CandidateExecution &CE;
    std::vector<EventId> Reads;
  };
  using VisitFn = std::function<bool(const CandidateExecution &)>;

  const std::function<bool(const Event &)> &ValueAllowed;

  bool skip(const BaseT &, size_t, unsigned, const Event &, const Event &,
            unsigned, EngineStats *) const {
    return false;
  }
  bool valueAllowed(const BaseT &, const Event &R) const {
    return ValueAllowed(R);
  }
  bool refuted(const BaseT &, size_t, EngineStats *) const { return false; }
  bool leaf(BaseT &B, const VisitFn &Visit) const { return Visit(B.CE); }
};

/// Materialises the skeleton for one choice of paths.
ArmSkeleton buildArmSkeleton(const ArmProgram &P,
                             std::vector<const ArmThreadPath *> Chosen) {
  ArmSkeleton S;
  S.Paths = std::move(Chosen);

  struct DepFixup {
    EventId Ev;
    int AddrReg, DataReg;
    uint64_t CtrlRegs;
    int RmwTag;
    bool IsLoad;
  };
  std::vector<ArmEvent> Events;
  for (unsigned B = 0; B < P.bufferSizes().size(); ++B)
    Events.push_back(makeArmInit(static_cast<EventId>(Events.size()),
                                 P.bufferSizes()[B], B));
  std::vector<std::vector<EventId>> ThreadEvents(P.numThreads());
  std::vector<DepFixup> Fixups;
  for (unsigned T = 0; T < S.Paths.size(); ++T) {
    for (const ArmPathElem &Elem : S.Paths[T]->Elems) {
      const ArmInstr &I = *Elem.I;
      EventId Id = static_cast<EventId>(Events.size());
      ArmEvent E;
      switch (I.K) {
      case ArmInstr::Kind::Load:
        E = makeArmRead(Id, static_cast<int>(T), I.Offset, I.Width,
                        I.Acquire, I.Exclusive, I.Block);
        S.RegOfEvent[Id] = I.Dst;
        break;
      case ArmInstr::Kind::Store:
        E = makeArmWrite(Id, static_cast<int>(T), I.Offset, I.Width, I.Value,
                         I.Release, I.Exclusive, I.Block);
        break;
      case ArmInstr::Kind::DmbFull:
      case ArmInstr::Kind::DmbLd:
      case ArmInstr::Kind::DmbSt:
      case ArmInstr::Kind::Isb:
        E = makeArmFence(Id, static_cast<int>(T),
                         I.K == ArmInstr::Kind::DmbFull ? ArmKind::DmbFull
                         : I.K == ArmInstr::Kind::DmbLd ? ArmKind::DmbLd
                         : I.K == ArmInstr::Kind::DmbSt ? ArmKind::DmbSt
                                                        : ArmKind::Isb);
        break;
      case ArmInstr::Kind::IfEq:
      case ArmInstr::Kind::IfNe:
        continue; // branches do not materialise as events
      }
      E.SourceTag = I.SourceTag;
      uint64_t CtrlRegs = Elem.CtrlRegs;
      if (I.CtrlDepOn >= 0)
        CtrlRegs |= uint64_t(1) << static_cast<unsigned>(I.CtrlDepOn);
      Fixups.push_back({Id, I.AddrDepOn, I.DataDepOn, CtrlRegs, I.RmwTag,
                        I.K == ArmInstr::Kind::Load});
      Events.push_back(E);
      ThreadEvents[T].push_back(Id);
    }
  }

  S.Exec = ArmExecution(std::move(Events));
  ArmExecution &X = S.Exec;
  for (const std::vector<EventId> &Seq : ThreadEvents)
    for (size_t I = 0; I < Seq.size(); ++I)
      for (size_t J = I + 1; J < Seq.size(); ++J)
        X.Po.set(Seq[I], Seq[J]);

  // Wire register-carried dependencies. The provider of a register is the
  // po-latest load writing it before the consumer.
  auto ProviderOf = [&](const DepFixup &F, unsigned Reg) -> int {
    int Provider = -1;
    for (const auto &[Ev, R] : S.RegOfEvent)
      if (R == Reg && X.Events[Ev].Thread == X.Events[F.Ev].Thread &&
          X.Po.get(Ev, F.Ev))
        Provider = std::max(Provider, static_cast<int>(Ev));
    return Provider;
  };
  for (const DepFixup &F : Fixups) {
    if (F.AddrReg >= 0) {
      int Prov = ProviderOf(F, static_cast<unsigned>(F.AddrReg));
      if (Prov >= 0)
        X.AddrDep.set(static_cast<unsigned>(Prov), F.Ev);
    }
    if (F.DataReg >= 0) {
      int Prov = ProviderOf(F, static_cast<unsigned>(F.DataReg));
      if (Prov >= 0)
        X.DataDep.set(static_cast<unsigned>(Prov), F.Ev);
    }
    uint64_t Ctrl = F.CtrlRegs;
    while (Ctrl) {
      unsigned Reg = static_cast<unsigned>(__builtin_ctzll(Ctrl));
      Ctrl &= Ctrl - 1;
      int Prov = ProviderOf(F, Reg);
      if (Prov >= 0)
        X.CtrlDep.set(static_cast<unsigned>(Prov), F.Ev);
    }
  }
  // Exclusive pairs: a load and the po-next store sharing its RmwTag.
  for (const DepFixup &FL : Fixups) {
    if (!FL.IsLoad || FL.RmwTag < 0)
      continue;
    for (const DepFixup &FS : Fixups) {
      if (FS.IsLoad || FS.RmwTag != FL.RmwTag)
        continue;
      if (X.Events[FS.Ev].Thread == X.Events[FL.Ev].Thread &&
          X.Po.get(FL.Ev, FS.Ev))
        X.Rmw.set(FL.Ev, FS.Ev);
    }
  }
  return S;
}

/// An ARM skeleton prepared for the reads-from walk, which runs on it in
/// place: its coherence granules seeded (Init first; the granules depend
/// on the writes alone, and forEachCoherenceCompletion restores the seeds
/// after each walk), its reads, and per read byte whether it shares a
/// granule with the previous byte.
struct ArmBase {
  ArmSkeleton S;
  std::vector<EventId> Reads;
  /// [read idx][byte offset] -> 1 when the byte must take the previous
  /// byte's writer; all zero unless pruning.
  std::vector<std::vector<uint8_t>> SameGranule;
};

/// The ARMv8 core of the enumeration driver: one skeleton per path
/// combination (no sleep sets or static analysis). As the policy of the
/// reads-from walk it has a unit per read byte and walks the coherence
/// completions at the leaf. With a model to prune by, two sound cuts
/// apply, both a function of the justification stack alone:
///
///   - granule-atomic reads (the writer skip): a read takes every byte of
///     one coherence granule from one writer. Tearing a granule across
///     writers W1 co-before W2 gives fr R->W2 on one byte and rbf W2->R on
///     the other: an rfe/fre cycle in ob when W2 is external, a per-byte
///     po-loc cycle when it is on R's thread — inconsistent under every co;
///   - monotone admission: once a read's bytes are complete, the subtree
///     is cut when armRefutedForEveryCo refutes the rbf prefix. The three
///     §4 axioms only gain edges as rbf grows, as they do as co grows.
struct ArmCore {
  using BaseT = ArmBase;
  using EventT = ArmEvent;
  using ResultT = ArmEnumerationResult;
  using VisitFn = std::function<bool(const ArmExecution &, const Outcome &)>;

  const ArmProgram &P;
  const Armv8Model *Prune;
  PathSpace<ArmThreadPath> Space;
  size_t Combos;

  ArmCore(const ArmProgram &P, const Armv8Model *Prune)
      : P(P), Prune(Prune), Space(P, enumerateArmPaths),
        Combos(Space.Combos) {}

  template <typename FnT> bool forEachSkeleton(FnT &&Fn) const {
    for (size_t C = 0; C < Space.Combos; ++C) {
      ArmSkeleton S = buildArmSkeleton(P, Space.chosen(Space.indices(C)));
      if (!Fn(S))
        return false;
    }
    return true;
  }

  template <typename FnT> bool forEachBase(EngineStats *, FnT &&Fn) const {
    return forEachSkeleton([&](ArmSkeleton &S) {
      ArmBase B{std::move(S), {}, {}};
      ArmExecution &X = B.S.Exec;
      X.Co = X.computeGranules();
      for (const ArmEvent &E : X.Events) {
        if (!E.isRead())
          continue;
        B.Reads.push_back(E.Id);
        std::vector<uint8_t> &Same =
            B.SameGranule.emplace_back(E.end() - E.begin(), 0);
        if (Prune)
          for (const CoGranule &G : X.Co)
            if (G.Block == E.Block)
              for (unsigned Loc = std::max(G.Begin + 1, E.begin() + 1);
                   Loc < std::min(G.End, E.end()); ++Loc)
                Same[Loc - E.begin()] = 1;
      }
      return Fn(B);
    });
  }

  template <typename BaseT> static auto &events(BaseT &B) {
    return B.S.Exec.Events;
  }
  static unsigned firstUnit(const ArmEvent &R) { return R.begin(); }
  static unsigned endUnit(const ArmEvent &R) { return R.end(); }
  static bool eligible(const ArmEvent &W, const ArmEvent &R, unsigned Loc) {
    return W.isWrite() && W.Id != R.Id && W.Block == R.Block &&
           W.touchesByte(Loc);
  }

  /// A byte sharing the previous byte's granule takes its writer.
  bool skip(const ArmBase &B, size_t ReadIdx, unsigned Loc,
            const ArmEvent &R, const ArmEvent &W, unsigned,
            EngineStats *St) const {
    return B.SameGranule[ReadIdx][Loc - R.begin()] &&
           W.Id != B.S.Exec.Rbf.back().Writer &&
           count(St, &EngineStats::PrunedSubtrees);
  }
  static void take(ArmBase &B, unsigned Loc, ArmEvent &R, const ArmEvent &W) {
    B.S.Exec.Rbf.push_back({Loc, W.Id, R.Id});
    R.Bytes[Loc - R.Index] = W.byteAt(Loc);
  }
  static void drop(ArmBase &B, ArmEvent &, const ArmEvent &) {
    B.S.Exec.Rbf.pop_back();
  }
  bool valueAllowed(const ArmBase &B, const ArmEvent &R) const {
    return armConstraintsAllow(*B.S.Paths[R.Thread], B.S.RegOfEvent.at(R.Id),
                               valueOfBytes(R.Bytes));
  }
  bool refuted(const ArmBase &B, size_t, EngineStats *St) const {
    return Prune && armRefutedForEveryCo(B.S.Exec) &&
           count(St, &EngineStats::PrunedSubtrees);
  }
  bool leaf(ArmBase &B, const VisitFn &Visit) const {
    ArmExecution &X = B.S.Exec;
    return forEachCoherenceCompletion(X, [&] {
      Outcome O;
      for (const auto &[Id, Reg] : B.S.RegOfEvent)
        O.add(X.Events[Id].Thread, Reg, valueOfBytes(X.Events[Id].Bytes));
      return Visit(X, O);
    });
  }
};

//===----------------------------------------------------------------------===//
// Uni-size candidate space: the target columns and uni-js
//===----------------------------------------------------------------------===//

/// One column of a target walk: a compiled form and the backend judging it
/// (null for the unjudged candidate walk of forEachTargetCandidate).
struct TargetColumnSpec {
  const CompiledTarget *CT;
  const TargetModel *M;
};

/// An execution of \p Events with po and no rf or co chosen. Each
/// thread's events are contiguous and in program order, so an event's po
/// row is the events of its thread after it.
TargetExecution threadExecution(std::vector<TargetEvent> Events,
                                unsigned NumLocs) {
  TargetExecution X(std::move(Events), NumLocs);
  BitSet Later;
  for (size_t I = X.Events.size(); I-- > 0;) {
    const TargetEvent &E = X.Events[I];
    if (E.Thread < 0)
      continue;
    if (I + 1 == X.Events.size() || X.Events[I + 1].Thread != E.Thread)
      Later = Relation::emptySet(X.numEvents());
    X.Po.assignRow(E.Id, Later);
    bits::set(Later, E.Id);
  }
  return X;
}

/// The compiled form's own execution: an init write per location, then
/// every instruction, fences included. Only the witness doors build it.
TargetExecution targetExecution(const CompiledTarget &CT) {
  std::vector<TargetEvent> Events;
  for (unsigned L = 0; L < CT.NumLocs; ++L) {
    TargetEvent &Init = Events.emplace_back();
    Init.Id = L;
    Init.Kind = TKind::Write;
    Init.Loc = L;
    Init.IsInit = true;
  }
  for (TargetEvent &E : formEvents(CT))
    if (E.Thread >= 0) {
      E.Id = static_cast<EventId>(Events.size());
      Events.push_back(E);
    }
  return threadExecution(std::move(Events), CT.NumLocs);
}

/// What uni-js derives from sb and the event kinds, built once per base:
/// hb₀ = (sb ∪ init edges)⁺, the part of hb no rf choice changes, and per
/// location its writes and its SeqCst writes.
struct UniStatics {
  Relation Hb0;
  std::vector<BitSet> WritesAt, ScWritesAt;
};

UniStatics uniStatics(const TargetExecution &X) {
  unsigned N = X.numEvents();
  std::vector<BitSet> AtLoc(X.CoPerLoc.size(), Relation::emptySet(N));
  UniStatics U{X.Po, AtLoc, AtLoc};
  for (const TargetEvent &E : X.Events) {
    if (!E.IsInit)
      bits::set(AtLoc[E.Loc], E.Id);
    if (E.isWrite())
      bits::set(U.WritesAt[E.Loc], E.Id);
    if (E.isWrite() && E.Sc)
      bits::set(U.ScWritesAt[E.Loc], E.Id);
  }
  // po is transitive and nothing precedes an init, so an init precedes
  // exactly its location's events and everything those precede.
  for (const TargetEvent &I : X.Events)
    if (I.IsInit) {
      BitSet Row = AtLoc[I.Loc];
      bits::forEach(AtLoc[I.Loc], [&](unsigned E) { Row |= X.Po.row(E); });
      U.Hb0.assignRow(I.Id, Row);
    }
  return U;
}

/// Whether the rf edge \p W → \p R breaks HBC2 (the read hb-precedes its
/// writer) or HBC3 (a write of the location lies hb-between them) under
/// \p Hb, given the location's writes \p WritesAt.
bool breaksHbc(const Relation &Hb, EventId W, EventId R,
               const BitSet &WritesAt) {
  return Hb.get(R, W) ||
         !bits::forEachWhile(Hb.row(W) & WritesAt,
                             [&](unsigned C) { return !Hb.get(C, R); });
}

/// A compiled form inside a walk: what its backend derives from po and
/// the event kinds, built once per base over the walk's numbering and
/// shared by every work item. X, the form's own execution, and IdOf are
/// kept only where a caller sees it (witnesses and the candidate walk),
/// and X receives each such leaf through IdOf.
struct TargetColumn {
  const TargetModel *M = nullptr;
  TargetExecution X;
  /// Walk event id -> this form's event id.
  std::vector<EventId> IdOf;
  std::shared_ptr<const TargetStatics> Statics;
};

/// A read index past every read: a column group no read refuted.
constexpr size_t NoRead = SIZE_MAX;

/// The materialised base of a uni-size walk. Target programs are
/// straight-line (the §6.3 fragment), so there is exactly one base; the
/// candidate space is rf justifications × per-location coherence orders.
///
/// compileUni maps each source access to exactly one access
/// (TargetEvent::SourceIdx) and only adds fences, so every compiled form
/// of one program has the same access view (formEvents): the uni-size
/// program's events less the init writes no read touches. So the forms
/// share their writers per read, their po-loc ∪ rf admission and their
/// coherence permutations. The walk runs once over that view (X) and
/// judges each leaf for every column there: the shared axioms read no
/// fence, each target column's statics were built over the view, and
/// uni-js reads the view itself.
struct TargetBase {
  TargetExecution X;
  /// po-loc of X, the admission's rf-independent half.
  std::shared_ptr<const Relation> PoLoc;
  std::vector<EventId> Reads;
  std::map<EventId, unsigned> RegOfEvent;
  /// Walk event id -> the writer its read takes (reads only).
  std::vector<EventId> WriterOf;
  /// A location whose writers the leaf permutes, from position First of
  /// its coherence order (past the init write).
  struct PermutedLoc {
    unsigned Loc;
    unsigned First;
  };
  std::vector<PermutedLoc> MultiWriter;
  /// [read idx][eligible-writer position] -> allowed flag; empty unless
  /// static pruning is on (see buildTargetStaticAllow).
  std::vector<std::vector<uint8_t>> Allow;
  std::vector<TargetColumn> Cols;
  /// uni-js's statics; null unless the walk judges uni-js.
  std::shared_ptr<const UniStatics> Uni;
  /// Per column group (TargetCore::Group), the read whose writer choice
  /// refuted the group on the current path, or NoRead.
  size_t RefutedAt[2] = {NoRead, NoRead};
  /// Whether the current rf leaf still has to be judged by each group
  /// (set by TargetCore::leaf, read by its accumulate).
  bool TargetLeaf = false, UniLeaf = false;
  /// Scratch: hb at an rf leaf whose rf adds sw edges to hb₀.
  Relation Hb;
};

/// Builds the walk over \p Specs' compiled forms and, given \p UniJs, the
/// program they come from, for the uni-js column; \p KeepExecs keeps each
/// form's own execution for syncColumn. The walk's execution is the access
/// view of the first form, or with uni-js of UniJs's ImmLite form, whose
/// scheme maps each access to itself and marks Sc exactly the SeqCst ones.
/// Each column's statics are built from its form's events straight in the
/// view's numbering (formEvents): no form's own execution is built unless
/// KeepExecs asks for it.
TargetBase buildTargetBase(const std::vector<TargetColumnSpec> &Specs,
                           const UniProgram *UniJs, bool KeepExecs) {
  assert((!Specs.empty() || UniJs) && "a target walk needs a column");
  TargetBase B;
  std::optional<CompiledTarget> Own;
  const CompiledTarget &First =
      UniJs ? Own.emplace(compileUni(*UniJs, TargetArch::ImmLite))
            : *Specs[0].CT;
  std::vector<TargetEvent> FirstSeq = formEvents(First, &B.RegOfEvent);
  std::vector<TargetEvent> View;
  std::copy_if(FirstSeq.begin(), FirstSeq.end(), std::back_inserter(View),
               [](const TargetEvent &E) { return E.isAccess(); });
  B.X = threadExecution(std::move(View), First.NumLocs);
  for (const TargetEvent &E : B.X.Events)
    if (E.isRead())
      B.Reads.push_back(E.Id);
  unsigned N = B.X.numEvents();
  std::vector<TargetEvent> OwnSeq;
  for (const TargetColumnSpec &Spec : Specs) {
    const std::vector<TargetEvent> &Seq =
        Spec.CT == &First ? FirstSeq : (OwnSeq = formEvents(*Spec.CT));
    bool Same = Spec.CT->NumLocs == First.NumLocs;
    unsigned Accesses = 0;
    for (const TargetEvent &E : Seq) {
      if (!E.isAccess())
        continue;
      ++Accesses;
      const TargetEvent *A = E.Id < N ? &B.X.Events[E.Id] : nullptr;
      Same = Same && A && A->Kind == E.Kind && A->Loc == E.Loc &&
             A->Thread == E.Thread && A->WriteVal == E.WriteVal &&
             A->SourceIdx == E.SourceIdx && A->IsInit == E.IsInit;
    }
    if (!Same || Accesses != N)
      throw std::invalid_argument(
          "target columns compiled from different programs");
    TargetColumn &C = B.Cols.emplace_back();
    C.M = Spec.M;
    if (C.M)
      C.Statics = std::make_shared<const TargetStatics>(
          targetStatics(Seq, N, C.M->arch()));
    if (KeepExecs) {
      // targetExecution numbers the inits by location, then every
      // instruction in Seq's order.
      C.X = targetExecution(*Spec.CT);
      EventId Next = Spec.CT->NumLocs;
      for (const TargetEvent &E : Seq) {
        EventId Own = E.Thread < 0 ? E.Loc : Next++;
        if (E.isAccess())
          C.IdOf.push_back(Own);
      }
    }
  }
  B.PoLoc = std::make_shared<const Relation>(B.X.poLoc());
  if (UniJs)
    B.Uni = std::make_shared<const UniStatics>(uniStatics(B.X));
  B.WriterOf.resize(B.X.numEvents());
  // Coherence orders do not depend on rf: init, then the writers in id
  // order. The walk's leaf permutes the locations with two or more
  // non-init writers.
  for (bool Init : {true, false})
    for (const TargetEvent &E : B.X.Events)
      if (E.isWrite() && E.IsInit == Init)
        B.X.CoPerLoc[E.Loc].push_back(E.Id);
  for (unsigned Loc = 0; Loc < B.X.CoPerLoc.size(); ++Loc) {
    const std::vector<EventId> &Order = B.X.CoPerLoc[Loc];
    unsigned First = !Order.empty() && B.X.Events[Order[0]].IsInit;
    if (Order.size() >= First + 2)
      B.MultiWriter.push_back({Loc, First});
  }
  return B;
}

/// Copies the walk's current rf, read values and coherence orders into
/// column \p C's execution through its access-id map. A location no read
/// touches has no init in the walk; the form's own init (its event Loc)
/// stays first in its order.
void syncColumn(const TargetBase &B, TargetColumn &C) {
  C.X.Rf = Relation(C.X.numEvents());
  for (EventId R : B.Reads) {
    C.X.Rf.set(C.IdOf[B.WriterOf[R]], C.IdOf[R]);
    C.X.Events[C.IdOf[R]].ReadVal = B.X.Events[R].ReadVal;
  }
  for (unsigned L = 0; L < B.X.CoPerLoc.size(); ++L) {
    const std::vector<EventId> &Walk = B.X.CoPerLoc[L];
    std::vector<EventId> &Order = C.X.CoPerLoc[L];
    Order.clear();
    if (Walk.empty() || !B.X.Events[Walk[0]].IsInit)
      Order.push_back(L);
    for (EventId W : Walk)
      Order.push_back(C.IdOf[W]);
  }
}

std::vector<std::vector<uint8_t>>
buildTargetStaticAllow(const analysis::StaticValues &SV, const TargetBase &B);

/// Per-column results of one uni-size walk: the target columns in order,
/// then uni-js when the walk judges it (its Allowed map holds empty
/// executions: the outcome-level door keeps no uni-js witness).
struct TargetResults {
  std::vector<TargetEnumerationResult> Cols;
};

/// \returns the outcome of the walk's current rf.
Outcome outcomeOf(const TargetBase &B) {
  Outcome O;
  for (const auto &[Id, Reg] : B.RegOfEvent)
    O.add(B.X.Events[Id].Thread, Reg, B.X.Events[Id].ReadVal);
  return O;
}

/// The uni-size core of the enumeration driver: one walk for the target
/// columns and, when asked, the uni-size JavaScript model (uni-js). Target
/// programs are straight-line, so the space has exactly one base. As the
/// policy of the reads-from walk: a read's one unit is its cell; the
/// static may-rf mask skips writers; each complete read (each writer
/// choice) meets the admission cut; the leaf judges uni-js once, then
/// walks the coherence orders for the target columns. No sleep sets apply
/// at this tier: fr and co verdicts depend on the rf writer's identity,
/// not just the value read.
///
/// The columns form two groups, each with its own monotone admission: the
/// targets share targetAdmits, and uni-js refutes an rf edge that breaks
/// HBC2 or HBC3 against hb₀. targetAdmits alone would be unsound for
/// uni-js (same-location load buffering passes uni-js and fails it), so a
/// subtree is cut only when every group present refutes it. The first
/// group present leads: only its skips, cuts and candidates count into
/// EngineStats, so the target counters do not change with uni-js along.
struct TargetCore {
  using BaseT = TargetBase;
  using EventT = TargetEvent;
  using ResultT = TargetResults;
  using VisitFn = std::function<bool(TargetBase &, const Outcome &)>;
  enum Group { Targets, Uni };

  const std::vector<TargetColumnSpec> &Specs;
  bool Prune;
  const analysis::StaticValues *SV = nullptr;
  /// Keep each form's own execution: for the enumerate() door's witnesses
  /// and the candidate walk's visits. The outcome-level doors keep
  /// outcomes alone, so only the walk's execution stays resident.
  bool KeepExecs = false;
  /// The uni-size program uni-js judges in this walk, or null.
  const UniProgram *UniJs = nullptr;
  size_t Combos = 1;

  template <typename FnT> bool forEachBase(EngineStats *, FnT &&Fn) const {
    BaseT B = buildTargetBase(Specs, UniJs, KeepExecs);
    if (SV)
      B.Allow = buildTargetStaticAllow(*SV, B);
    return Fn(B);
  }

  Group lead() const { return Specs.empty() ? Uni : Targets; }
  /// Whether group \p G is in the walk and no writer choice before read
  /// \p ReadIdx on the current path refuted it.
  bool live(const TargetBase &B, Group G, size_t ReadIdx) const {
    return (G == Targets ? !Specs.empty() : UniJs != nullptr) &&
           B.RefutedAt[G] >= ReadIdx;
  }

  template <typename BaseT> static auto &events(BaseT &B) {
    return B.X.Events;
  }
  static unsigned firstUnit(const TargetEvent &R) { return R.Loc; }
  static unsigned endUnit(const TargetEvent &R) { return R.Loc + 1; }
  static bool eligible(const TargetEvent &W, const TargetEvent &R,
                       unsigned Loc) {
    return W.isWrite() && W.Id != R.Id && W.Loc == Loc;
  }

  /// Static may-rf pruning, for every column (see JsCore::skip and
  /// buildTargetStaticAllow).
  bool skip(const TargetBase &B, size_t ReadIdx, unsigned,
            const TargetEvent &, const TargetEvent &, unsigned Pos,
            EngineStats *St) const {
    if (B.Allow.empty() || B.Allow[ReadIdx][Pos])
      return false;
    if (live(B, lead(), ReadIdx))
      count(St, &EngineStats::StaticRfPruned);
    return true;
  }
  static void take(TargetBase &B, unsigned, TargetEvent &R,
                   const TargetEvent &W) {
    B.X.Rf.set(W.Id, R.Id);
    R.ReadVal = W.WriteVal;
    B.WriterOf[R.Id] = W.Id;
  }
  static void drop(TargetBase &B, TargetEvent &R, const TargetEvent &W) {
    B.X.Rf.clear(W.Id, R.Id);
  }
  bool valueAllowed(const TargetBase &, const TargetEvent &) const {
    return true;
  }
  /// Checks each group still live after read \p ReadIdx's writer choice;
  /// cuts when none is left.
  bool refuted(TargetBase &B, size_t ReadIdx, EngineStats *St) const {
    if (!Prune)
      return false;
    bool Cut = true;
    for (Group G : {Targets, Uni}) {
      if (!live(B, G, ReadIdx))
        continue;
      B.RefutedAt[G] = NoRead;
      if (G == Targets ? targetAdmits(*B.PoLoc, B.X.Rf)
                       : !uniRefuted(B, ReadIdx)) {
        Cut = false;
        continue;
      }
      B.RefutedAt[G] = ReadIdx;
      if (G == lead())
        count(St, &EngineStats::PrunedSubtrees);
    }
    return Cut;
  }
  /// uni-js's admission: read \p ReadIdx's rf edge breaks HBC2 (the read
  /// hb-precedes its writer) or HBC3 (a write of the location lies
  /// hb-between them) against hb₀. hb only grows from hb₀, by the sw
  /// edges of a leaf's rf, so the breach survives every leaf below.
  static bool uniRefuted(const TargetBase &B, size_t ReadIdx) {
    EventId R = B.Reads[ReadIdx];
    return breaksHbc(B.Uni->Hb0, B.WriterOf[R], R,
                     B.Uni->WritesAt[B.X.Events[R].Loc]);
  }
  bool leaf(TargetBase &B, const VisitFn &Visit) const {
    B.UniLeaf = live(B, Uni, B.Reads.size());
    B.TargetLeaf = live(B, Targets, B.Reads.size());
    if (B.TargetLeaf)
      return chooseCo(B, Visit, 0);
    assert(B.UniLeaf && "the walk cuts a leaf no group judges");
    return Visit(B, outcomeOf(B));
  }

  /// Walks the permutations of each MultiWriter location, the earlier
  /// location outermost.
  bool chooseCo(TargetBase &B, const VisitFn &Visit, size_t Idx) const {
    if (Idx == B.MultiWriter.size())
      return Visit(B, outcomeOf(B));
    std::vector<EventId> &Order = B.X.CoPerLoc[B.MultiWriter[Idx].Loc];
    do {
      if (!chooseCo(B, Visit, Idx + 1))
        return false;
    } while (std::next_permutation(Order.begin() + B.MultiWriter[Idx].First,
                                   Order.end()));
    return true; // the last permutation wrapped back to id order
  }
};

/// The target flavour of the static writer-allow mask: [read idx]
/// [eligible-writer position] (cells are width-1, so no byte axis). \p SV
/// is the analysis of the source program; each event takes the facts of
/// its source access (TargetEvent::SourceIdx), a read those of byte 0 of
/// its source range. In the uni-size fragment every access to a cell
/// covers exactly that cell, so that byte's may-rf writers and init flag
/// are the cell's. The exclusion rules are refuted by per-location
/// coherence on every backend — targetScPerLocation on five of them, and
/// ImmLite's COHERENCE axiom (Hb;Eco irreflexive, init first in co)
/// independently — and by uni-js's HBC2 (E1) and HBC3 (E2) against hb₀.
std::vector<std::vector<uint8_t>>
buildTargetStaticAllow(const analysis::StaticValues &SV,
                       const TargetBase &B) {
  std::vector<std::vector<uint8_t>> Allow(B.Reads.size());
  for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
    const TargetEvent &R = B.X.Events[B.Reads[RI]];
    const analysis::ReadMayRf *MR =
        SV.readMayRf(static_cast<unsigned>(R.SourceIdx));
    assert(MR && "read event mapped to a non-read access");
    const analysis::MayRfByte &MB = MR->Bytes[0];
    for (const TargetEvent &W : B.X.Events) {
      if (!TargetCore::eligible(W, R, R.Loc))
        continue;
      bool Ok = W.IsInit
                    ? MB.Init
                    : std::binary_search(MB.Writers.begin(),
                                         MB.Writers.end(),
                                         static_cast<unsigned>(W.SourceIdx));
      Allow[RI].push_back(Ok ? 1 : 0);
    }
  }
  return Allow;
}

/// uni-js's verdict on the walk's current rf (Fig. 12). hb is hb₀ plus the
/// sw edges of this rf (reads-from between SeqCst accesses), each closed
/// in place; an edge whose reverse is already in hb closes a cycle. Then
/// HBC2 and HBC3, and the SC Atomics rule: with no forbidden triple any
/// linear extension of hb is a tot, else the order solver decides.
bool uniAllows(TargetBase &B) {
  const UniStatics &U = *B.Uni;
  const std::vector<TargetEvent> &Ev = B.X.Events;
  auto Sw = [&](EventId R) { return Ev[R].Sc && Ev[B.WriterOf[R]].Sc; };
  const Relation *Hb = &U.Hb0;
  for (EventId R : B.Reads) {
    EventId W = B.WriterOf[R];
    if (!Sw(R) || Hb->get(W, R))
      continue;
    if (Hb->get(R, W))
      return false;
    if (Hb == &U.Hb0) {
      B.Hb = U.Hb0;
      Hb = &B.Hb;
    }
    B.Hb.addClosedEdge(W, R, [](unsigned, const BitSet &) {});
  }
  for (EventId R : B.Reads)
    if (breaksHbc(*Hb, B.WriterOf[R], R, U.WritesAt[Ev[R].Loc]))
      return false;
  TotProblem P;
  for (EventId R : B.Reads) {
    EventId W = B.WriterOf[R];
    if (!Hb->get(W, R))
      continue;
    // C is a SeqCst write of the pair's location: D1 (sw), D2, D3.
    bits::forEach(U.ScWritesAt[Ev[R].Loc], [&](unsigned C) {
      if (C != W && C != R &&
          (Sw(R) || (Ev[W].Sc && Hb->get(C, R)) ||
           (Ev[R].Sc && Hb->get(W, C))))
        P.Forbidden.push_back({W, C, R});
    });
  }
  if (P.Forbidden.empty())
    return true;
  P.N = B.X.numEvents();
  P.Universe = Relation::fullSet(P.N);
  P.Must = *Hb;
  return defaultTotSolver().existsExtension(P);
}

/// Judges the leaf \p B for every column of \p Into. uni-js is judged once
/// per rf leaf, at its first coherence order, when it has no witness for
/// \p O yet. For the target columns the leaf is counted into every column
/// and kept as the witness of \p O for each column that has none yet and
/// whose backend admits it. The leaf's coherence, from-reads and the
/// relations derived from them are built once, over the walk's execution,
/// and shared by every column. The shared axioms read no fence, so one
/// evaluation answers them for every column: atomicity for all six
/// backends, SC-per-location for all but ImmLite (whose COHERENCE axiom
/// stands in for it). Each column then checks only its final axiom, with
/// its statics.
void accumulate(TargetResults &Into, const TargetCore &Core,
                TargetBase &B, const Outcome &O) {
  Into.Cols.resize(B.Cols.size() + (B.Uni != nullptr));
  if (B.UniLeaf) {
    B.UniLeaf = false;
    TargetEnumerationResult &R = Into.Cols.back();
    ++R.CandidatesConsidered;
    if (!R.Allowed.count(O) && uniAllows(B)) {
      R.Allowed.emplace(O, TargetExecution());
      ++R.ConsistentCandidates;
    }
  }
  if (!B.TargetLeaf)
    return;
  bool Open = false;
  for (size_t I = 0; I < B.Cols.size(); ++I) {
    ++Into.Cols[I].CandidatesConsidered;
    Open = Open || !Into.Cols[I].Allowed.count(O);
  }
  if (!Open)
    return;
  TargetCandidate Leaf(B.X);
  if (!targetAtomicity(Leaf.Co, Leaf.Fr))
    return;
  std::optional<bool> ScPerLoc;
  for (size_t I = 0; I < B.Cols.size(); ++I) {
    TargetEnumerationResult &R = Into.Cols[I];
    TargetColumn &C = B.Cols[I];
    if (R.Allowed.count(O))
      continue;
    if (C.Statics->Arch != TargetArch::ImmLite) {
      if (!ScPerLoc)
        ScPerLoc = targetScPerLocation(*B.PoLoc, B.X.Rf, Leaf.Co, Leaf.Fr);
      if (!*ScPerLoc)
        continue;
    }
    if (!targetFinalAxiom(Leaf, *C.Statics))
      continue;
    if (Core.KeepExecs)
      syncColumn(B, C);
    R.Allowed.emplace(O, C.X);
    ++R.ConsistentCandidates;
  }
}

void mergeItem(TargetResults &Into, TargetResults &Item) {
  Into.Cols.resize(std::max(Into.Cols.size(), Item.Cols.size()));
  for (size_t I = 0; I < Item.Cols.size(); ++I)
    mergeItem(Into.Cols[I], Item.Cols[I]);
}

//===----------------------------------------------------------------------===//
// Observability and the shared enumerateOutcomes tail
//===----------------------------------------------------------------------===//

/// Past this many events the brute oracle's linear-extension walk does not
/// finish in useful time, so the JS door answers a Brute request with
/// propagation instead. A Propagate request is never rerouted.
constexpr unsigned BruteMaxEvents = 256;

/// Names the relation row width of an enumerateOutcomes walk, for
/// OutcomeSummary::Tier, and traces it: "inline" up to 64 events (rows of
/// one word, stored in the relation), "dyn" beyond (rows of several words,
/// on the heap).
const char *selectTier(const char *Entry, unsigned Events, SolverKind Kind) {
  const char *Tier = Events <= 64 ? "inline" : "dyn";
  traceEvent("tier-select", {{"entry", Entry},
                             {"events", static_cast<double>(Events)},
                             {"tier", Tier},
                             {"solver", solverKindName(Kind)}});
  return Tier;
}

/// Re-exports an enumeration's effort counters into the obs registry.
/// Every value is a deterministic function of the enumerated space, so
/// all of these land in the golden-comparable Deterministic class.
void recordEngineObs(const EngineStats &St, uint64_t CandidatesConsidered,
                     uint64_t ValidCandidates, const char *Tier) {
  if (!obs::metricsEnabled())
    return;
  obs::MetricsRegistry &R = obs::registry();
  R.counter("engine.enumerations").add(1);
  R.counter("engine.work_items").add(St.WorkItems);
  R.counter("engine.pruned_subtrees").add(St.PrunedSubtrees);
  R.counter("engine.slept_branches").add(St.SleptBranches);
  R.counter("engine.candidates_considered").add(CandidatesConsidered);
  R.counter("engine.valid_candidates").add(ValidCandidates);
  R.counter("engine.static_rf_pruned").add(St.StaticRfPruned);
  R.counter("engine.static_paths_pruned").add(St.StaticPathsPruned);
  R.counter(std::string("engine.tier.") + Tier).add(1);
}

/// The shared tail of both enumerateOutcomes doors: stamps the tier and
/// solver on each column of one walk and reports the walk's effort \p St
/// once. The columns of a target walk share its leaves, so the walk's
/// candidate count is any column's; valid candidates sum over columns.
void finishOutcomes(std::span<OutcomeSummary> Cols, const char *Entry,
                    const char *Tier, SolverKind Kind,
                    const analysis::StaticValues *SV, const EngineStats &St) {
  uint64_t Valid = 0;
  for (OutcomeSummary &S : Cols) {
    S.Tier = Tier;
    S.SolverUsed = Kind;
    Valid += S.ValidCandidates;
  }
  // How much the value-aware static tier cut from this full enumeration
  // (may_rf_excluded counts the analysed litmus program's exclusions, so
  // a job's columns share it).
  if (SV)
    traceEvent("static-prune",
               {{"entry", Entry},
                {"rf_pruned", static_cast<double>(St.StaticRfPruned)},
                {"paths_pruned", static_cast<double>(St.StaticPathsPruned)},
                {"may_rf_excluded", static_cast<double>(SV->MayRfExcluded)}});
  recordEngineObs(St, Cols.empty() ? 0 : Cols[0].CandidatesConsidered, Valid,
                  Tier);
}

} // namespace

//===----------------------------------------------------------------------===//
// JavaScript entry points
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachCandidate(
    const Program &P,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit) const {
  checkCapacity(P);
  return walkCore(JsCore(P, /*M=*/nullptr, /*Prune=*/false), nullptr,
                  [&](JsBase &B, const Outcome &O) { return Visit(B.CE, O); });
}

bool ExecutionEngine::forEachAdmittedCandidate(
    const Program &P, const JsModel &M,
    const std::function<bool(const CandidateExecution &,
                             const DerivedTriple &, const Outcome &)> &Visit,
    const std::function<void(const CandidateExecution &,
                             const DerivedTriple &)> &Prefix) const {
  checkCapacity(P);
  EngineStats Local;
  JsCore Core(P, &M, Cfg.Prune);
  if (Prefix)
    Core.OnPrefix = &Prefix;
  bool Completed = walkCore(Core, &Local, [&](JsBase &B, const Outcome &O) {
    return Visit(B.CE, B.D, O);
  });
  Stats = Local;
  return Completed;
}

EnumerationResult ExecutionEngine::enumerate(const Program &P,
                                             const JsModel &M) const {
  checkCapacity(P);
  EngineStats Local;
  EnumerationResult R =
      enumerateCore(JsCore(P, &M, Cfg.Prune), M, effectiveThreads(), Local);
  Stats = Local;
  return R;
}

OutcomeSummary
ExecutionEngine::enumerateOutcomes(const Program &P, const JsModel &M,
                                   const analysis::StaticValues *SV) const {
  checkCapacity(P);
  unsigned Events = programEventUpperBound(P);
  SolverKind Kind = M.solver().Kind.value_or(defaultSolverKind());
  std::optional<analysis::StaticValues> Own;
  if (!Cfg.StaticFastPath)
    SV = nullptr;
  else if (!SV)
    SV = &Own.emplace(analysis::analyzeValues(P));
  // A large Brute request goes to propagation. Only the solver changes:
  // the spec, and therefore the verdict table, is the model's.
  if (Events > BruteMaxEvents && Kind == SolverKind::Brute) {
    traceEvent("solver-dispatch",
               {{"entry", "js"},
                {"events", static_cast<double>(Events)},
                {"from", solverKindName(Kind)},
                {"to", solverKindName(SolverKind::Propagate)}});
    return enumerateOutcomes(
        P, JsModel(M.spec(), SolverConfig::propagate()), SV);
  }
  const char *Tier = selectTier("js", Events, Kind);
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  // Equivalence-aware enumeration: rf sleep-set keys inside the walk.
  const ModelSpec *RedP = Cfg.Reduction ? &M.spec() : nullptr;
  EngineStats Local;
  OutcomeSummary S = summarize(enumerateCore<JsCore, JsModel, OutcomeTally>(
      JsCore(P, &M, Cfg.Prune, RedP, SV), M, effectiveThreads(), Local));
  Stats = Local;
  finishOutcomes({&S, 1}, "js", Tier, Kind, SV, Local);
  return S;
}

ScDrfReport ExecutionEngine::scDrf(const Program &P, const JsModel &M) const {
  checkCapacity(P);
  EngineStats Local;
  ScDrfReport Report;
  walkCore(JsCore(P, &M, Cfg.Prune), &Local,
           [&](JsBase &B, const Outcome &O) {
             (void)O;
             const CandidateExecution &CE = B.CE;
             if (!M.allows(CE, B.D))
               return true;
             if (Report.DataRaceFree && !isRaceFree(CE, B.D.Hb)) {
               Report.DataRaceFree = false;
               Report.RaceWitness = CE;
             }
             if (Report.AllValidExecutionsSC &&
                 !isSequentiallyConsistent(CE)) {
               Report.AllValidExecutionsSC = false;
               Report.NonScWitness = CE;
             }
             // Keep scanning until both facets are resolved.
             return Report.DataRaceFree || Report.AllValidExecutionsSC;
           });
  Stats = Local;
  return Report;
}

//===----------------------------------------------------------------------===//
// ARMv8 entry points
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachSkeleton(
    const ArmProgram &P,
    const std::function<bool(const ArmSkeleton &)> &Visit) const {
  checkCapacity(P);
  return ArmCore(P, /*Prune=*/nullptr).forEachSkeleton(Visit);
}

bool ExecutionEngine::forEachArmCandidate(
    const ArmProgram &P,
    const std::function<bool(const ArmExecution &, const Outcome &)> &Visit)
    const {
  checkCapacity(P);
  return walkCore(ArmCore(P, /*Prune=*/nullptr), nullptr, Visit);
}

ArmEnumerationResult ExecutionEngine::enumerate(const ArmProgram &P,
                                                const Armv8Model &M) const {
  checkCapacity(P);
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  EngineStats Local;
  ArmEnumerationResult R = enumerateCore(ArmCore(P, Cfg.Prune ? &M : nullptr),
                                         M, effectiveThreads(), Local);
  Stats = Local;
  recordEngineObs(Local, R.CandidatesConsidered, R.ConsistentCandidates,
                  "inline");
  return R;
}

//===----------------------------------------------------------------------===//
// Target-architecture entry points
//===----------------------------------------------------------------------===//

namespace {

/// The walk behind every target door: one rf × co walk over \p Specs'
/// compiled forms and, given \p UniJs (the program they come from), its
/// uni-js column; one summary per form, then uni-js's. Sets \p E.Stats to
/// the walk's effort, which is the target columns' when the walk has any:
/// uni-js rides along uncounted.
std::vector<OutcomeSummary>
targetOutcomes(const ExecutionEngine &E,
               const std::vector<TargetColumnSpec> &Specs,
               const UniProgram *UniJs,
               const analysis::StaticValues *Source) {
  const EngineConfig &Cfg = E.config();
  unsigned Events = 0;
  for (const TargetColumnSpec &C : Specs) {
    checkCapacity(*C.CT);
    Events = std::max(Events, targetEventBound(*C.CT));
  }
  if (UniJs) {
    checkCapacity(*UniJs);
    Events = std::max(Events, uniProgramEventBound(*UniJs));
  }
  SolverKind Kind = defaultSolverKind();
  const analysis::StaticValues *SV = Cfg.StaticFastPath ? Source : nullptr;
  if (SV) {
    bool Mismatch =
        UniJs && SV->C.Accesses.size() !=
                     uniProgramEventBound(*UniJs) - UniJs->numLocs();
    for (const TargetColumnSpec &C : Specs)
      Mismatch = Mismatch || SV->C.Accesses.size() != C.CT->Sources.size();
    if (Mismatch)
      throw std::invalid_argument(
          "static analysis of a different program than the compiled "
          "form's source");
  }
  const char *Tier = selectTier("target", Events, Kind);
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  EngineStats Local;
  TargetCore Core{Specs, Cfg.Prune, SV, /*KeepExecs=*/false, UniJs};
  TargetResults R = enumerateCore(Core, Core, E.effectiveThreads(), Local);
  R.Cols.resize(Specs.size() + (UniJs != nullptr));
  std::vector<OutcomeSummary> Out;
  for (TargetEnumerationResult &C : R.Cols)
    Out.push_back(summarize(std::move(C)));
  E.Stats = Local;
  size_t Counted = Specs.empty() ? Out.size() : Specs.size();
  finishOutcomes({Out.data(), Counted}, "target", Tier, Kind, SV, Local);
  for (size_t I = Counted; I < Out.size(); ++I) {
    Out[I].Tier = Tier;
    Out[I].SolverUsed = Kind;
  }
  return Out;
}

} // namespace

bool ExecutionEngine::forEachTargetCandidate(
    const CompiledTarget &CT,
    const std::function<bool(const TargetExecution &, const Outcome &)>
        &Visit) const {
  checkCapacity(CT);
  std::vector<TargetColumnSpec> Specs = {{&CT, nullptr}};
  return walkCore(TargetCore{Specs, /*Prune=*/false, /*SV=*/nullptr,
                             /*KeepExecs=*/true},
                  nullptr,
                  [&](TargetBase &B, const Outcome &O) {
                    syncColumn(B, B.Cols[0]);
                    return Visit(B.Cols[0].X, O);
                  });
}

TargetEnumerationResult
ExecutionEngine::enumerate(const CompiledTarget &CT,
                           const TargetModel &M) const {
  checkCapacity(CT);
  std::vector<TargetColumnSpec> Specs = {{&CT, &M}};
  TargetCore Core{Specs, Cfg.Prune, /*SV=*/nullptr, /*KeepExecs=*/true};
  EngineStats Local;
  TargetResults R = enumerateCore(Core, Core, effectiveThreads(), Local);
  Stats = Local;
  R.Cols.resize(1);
  return std::move(R.Cols[0]);
}

OutcomeSummary
ExecutionEngine::enumerateOutcomes(const CompiledTarget &CT,
                                   const TargetModel &M,
                                   const analysis::StaticValues *Source) const {
  return targetOutcomes(*this, {{&CT, &M}}, /*UniJs=*/nullptr, Source)[0];
}

std::vector<OutcomeSummary>
ExecutionEngine::enumerateOutcomes(const std::vector<CompiledTarget> &CTs,
                                   const analysis::StaticValues *Source,
                                   const UniProgram *UniJs) const {
  std::vector<TargetColumnSpec> Specs;
  for (const CompiledTarget &CT : CTs)
    Specs.push_back(
        {&CT, &TargetModel::all()[static_cast<size_t>(CT.Arch)]});
  if (Specs.empty() && !UniJs)
    return {};
  return targetOutcomes(*this, Specs, UniJs, Source);
}

//===----------------------------------------------------------------------===//
// Skeleton-search support
//===----------------------------------------------------------------------===//

namespace {

bool twinJustify(
    CandidateExecution &Js, ArmExecution &Arm, size_t ReadIdx,
    const std::vector<EventId> &Reads,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit) {
  if (ReadIdx == Reads.size())
    return Visit(Js, Arm);
  EventId R = Reads[ReadIdx];
  unsigned Loc = Js.Events[R].Index;
  for (const Event &W : Js.Events) {
    if (W.Id == R || !W.writesByte(Loc))
      continue;
    Js.Rbf.push_back({Loc, W.Id, R});
    Arm.Rbf.push_back({Loc, W.Id, R});
    Js.Events[R].ReadBytes[0] = W.writtenByteAt(Loc);
    Arm.Events[R].Bytes[0] = W.writtenByteAt(Loc);
    bool Continue = twinJustify(Js, Arm, ReadIdx + 1, Reads, Visit);
    Js.Rbf.pop_back();
    Arm.Rbf.pop_back();
    if (!Continue)
      return false;
  }
  return true;
}

} // namespace

bool ExecutionEngine::forEachTwinJustification(
    CandidateExecution &Js, ArmExecution &Arm,
    const std::function<bool(const CandidateExecution &, const ArmExecution &)>
        &Visit) {
  std::vector<EventId> Reads;
  for (const Event &E : Js.Events)
    if (E.isRead())
      Reads.push_back(E.Id);
  return twinJustify(Js, Arm, 0, Reads, Visit);
}

//===----------------------------------------------------------------------===//
// Wait/notify support
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachJustification(
    CandidateExecution &CE,
    const std::function<bool(const Event &)> &ValueAllowed,
    const std::function<bool(const CandidateExecution &)> &Visit) {
  WnPolicy::BaseT B{CE, {}};
  for (const Event &E : CE.Events)
    if (E.isRead())
      B.Reads.push_back(E.Id);
  CE.Rbf.clear();
  return Justifier(WnPolicy{{}, ValueAllowed}, B, Visit,
                   /*FirstWriterOnly=*/-1, /*St=*/nullptr)
      .run();
}
