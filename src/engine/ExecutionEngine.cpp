//===- engine/ExecutionEngine.cpp -----------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "analysis/ScEnumeration.h"
#include "analysis/StaticAnalysis.h"
#include "analysis/StaticValues.h"
#include "core/DataRace.h"
#include "core/SeqConsistency.h"
#include "engine/Symmetry.h"
#include "litmus/PathEnum.h"
#include "obs/Obs.h"
#include "solver/TotSolver.h"
#include "support/CapacityError.h"
#include "support/Str.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <string_view>
#include <thread>

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

/// The witness-carrying entry points return Relation-typed executions, so
/// they serve the fixed tier only; this throws the 64-event diagnostic.
template <typename ProgramT> void checkFixedCapacity(const ProgramT &P) {
  if (std::optional<std::string> Error =
          ExecutionEngine::fixedCapacityError(P))
    throw CapacityError(*Error);
}

} // namespace

std::optional<std::string> ExecutionEngine::capacityError(const Program &P) {
  return capacityErrorFor(programEventUpperBound(P), DynRelation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const ArmProgram &P) {
  return capacityErrorFor(armProgramEventUpperBound(P), Relation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const CompiledTarget &CT) {
  return capacityErrorFor(targetEventBound(CT), DynRelation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::capacityError(const UniProgram &P) {
  return capacityErrorFor(uniProgramEventBound(P), DynRelation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::fixedCapacityError(const Program &P) {
  return capacityErrorFor(programEventUpperBound(P), Relation::MaxSize);
}

std::optional<std::string>
ExecutionEngine::fixedCapacityError(const CompiledTarget &CT) {
  return capacityErrorFor(targetEventBound(CT), Relation::MaxSize);
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

/// Runs \p Body over \p NumItems items on \p Threads workers (inline when
/// sequential). Items are claimed from an atomic counter; \p Body must
/// only touch state owned by its item index.
void runSharded(size_t NumItems, unsigned Threads,
                const std::function<void(size_t)> &Body) {
  if (Threads <= 1 || NumItems <= 1) {
    for (size_t I = 0; I < NumItems; ++I)
      Body(I);
    return;
  }
  std::atomic<size_t> Next{0};
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
      std::min<size_t>(Threads, NumItems));
  Pool.reserve(N);
  for (unsigned T = 0; T < N; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
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
  if (Into.Allowed.count(O))
    return;
  if constexpr (std::is_same_v<ModelT, JsModel>) {
    decltype(X.Tot) Tot;
    if (!M.allows(X, &Tot))
      return;
    ExecT Witness = X;
    Witness.Tot = Tot;
    Into.Allowed.emplace(O, std::move(Witness));
  } else {
    if (!M.allows(X))
      return;
    Into.Allowed.emplace(O, X);
  }
  ++validCount(Into);
}

/// Visits every candidate of \p Core in order, one base at a time.
template <typename CoreT>
bool walkCore(const CoreT &Core, EngineStats *St,
              const typename CoreT::VisitFn &Visit) {
  return Core.forEachBase(St, [&](typename CoreT::BaseT &B) {
    return Core.justify(B, /*FirstWriter=*/-1, Visit, St);
  });
}

/// The one enumeration driver behind the JavaScript, ARMv8 and target
/// cores. A core supplies its bases (one per explored control-flow
/// combination), the first read's writer count of a base, and a justifier
/// walk; \p M decides which candidates count as valid.
///
/// Sequential runs walk one base at a time with global outcome
/// deduplication; WorkItems is the number of path combinations. Sharded
/// runs split every base across its first read's writer choices into work
/// items (WorkItems of them) with item-local results and counters, merged
/// in item order. So the outcome set, CandidatesConsidered and the
/// pruning counters are identical for every thread count; ValidCandidates
/// may differ, because outcome deduplication is per item. A base whose
/// first read has at most one writer is a single item. Under reduction,
/// slept first-writer items simply produce nothing: the sleep rules are a
/// function of the justification stack alone, so sharding cannot change
/// what is explored.
template <typename CoreT, typename ModelT>
typename CoreT::ResultT enumerateCore(const CoreT &Core, const ModelT &M,
                                      unsigned Threads, EngineStats &Stats) {
  using ExecT = typename CoreT::ExecT;
  using BaseT = typename CoreT::BaseT;
  using ResultT = typename CoreT::ResultT;
  if (Threads <= 1) {
    ResultT Result;
    Stats.WorkItems = Core.Combos;
    walkCore(Core, &Stats, [&](const ExecT &X, const Outcome &O) {
      accumulate(Result, M, X, O);
      return true;
    });
    return Result;
  }

  std::vector<BaseT> Bases;
  std::vector<WorkItem> Items;
  Core.forEachBase(&Stats, [&](BaseT &B) {
    unsigned Writers = Core.firstWriters(B);
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
    BaseT B = Bases[Items[I].Base]; // worker-private: justifiers mutate it
    Core.justify(
        B, Items[I].Writer,
        [&](const ExecT &X, const Outcome &O) {
          accumulate(PerItem[I], M, X, O);
          return true;
        },
        &PerItemStats[I]);
  });

  ResultT Result;
  for (size_t I = 0; I < Items.size(); ++I) {
    Result.CandidatesConsidered += PerItem[I].CandidatesConsidered;
    validCount(Result) += validCount(PerItem[I]);
    // The base builder counted WorkItems and StaticPathsPruned already.
    Stats.PrunedSubtrees += PerItemStats[I].PrunedSubtrees;
    Stats.SleptBranches += PerItemStats[I].SleptBranches;
    Stats.StaticRfPruned += PerItemStats[I].StaticRfPruned;
    for (auto &[O, Witness] : PerItem[I].Allowed)
      Result.Allowed.emplace(O, std::move(Witness));
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

//===----------------------------------------------------------------------===//
// Twin sleep sets (EngineConfig::Reduction)
//===----------------------------------------------------------------------===//

/// Twin sleep sets over the exact thread-symmetry classes, shared by the
/// JavaScript and target justifiers. Two events are twins when they sit at
/// the same body position in consecutive members of an exact class that
/// chose the same control-flow path. Exact twins have byte-identical
/// attributes, so swapping their two threads wholesale is an automorphism
/// of the base.
class TwinSleep {
public:
  /// Links the twins among \p Events (Thread -1: init). \p PathIdx holds
  /// the combination's per-thread path indices, or is empty for a
  /// straight-line program. A no-op for an empty symmetry.
  template <typename EventT>
  void setup(const ThreadSymmetry &Sym, const std::vector<EventT> &Events,
             const std::vector<size_t> &PathIdx) {
    if (Sym.empty())
      return;
    Active = true;
    size_t NumThreads = Sym.ClassOf.size();
    TwinPrev.assign(Events.size(), -1);
    TwinThreadOf.assign(Events.size(), -1);
    ThreadRefs.assign(NumThreads, 0);
    std::vector<std::vector<EventId>> ThreadEvents(NumThreads);
    for (const EventT &E : Events)
      if (E.Thread >= 0)
        ThreadEvents[E.Thread].push_back(E.Id);
    for (size_t Ci = 0; Ci < Sym.Classes.size(); ++Ci) {
      if (!Sym.Exact[Ci])
        continue;
      const std::vector<unsigned> &Cls = Sym.Classes[Ci];
      for (size_t K = 1; K < Cls.size(); ++K) {
        unsigned T1 = Cls[K - 1], T2 = Cls[K];
        if (!PathIdx.empty() && PathIdx[T1] != PathIdx[T2])
          continue; // different paths: no positional twin pairing
        assert(ThreadEvents[T1].size() == ThreadEvents[T2].size());
        for (size_t I = 0; I < ThreadEvents[T2].size(); ++I) {
          TwinPrev[ThreadEvents[T2][I]] =
              static_cast<int>(ThreadEvents[T1][I]);
          TwinThreadOf[ThreadEvents[T2][I]] = static_cast<int>(T1);
        }
      }
    }
  }

  /// \returns true if the subtree justifying \p R from \p W is asleep: W
  /// is the twin of an earlier class member's writer, neither thread of
  /// the pair is referenced by an rf choice yet, and the reading thread is
  /// outside the pair. The explored sibling's subtree is then isomorphic,
  /// and the orbit closure recovers its outcomes.
  template <typename EventT>
  bool asleep(const EventT &W, const EventT &R) const {
    if (!Active || TwinPrev[W.Id] < 0)
      return false;
    int T1 = TwinThreadOf[W.Id], T2 = W.Thread;
    if (R.Thread == T1 || R.Thread == T2)
      return false;
    return ThreadRefs[T1] == 0 && ThreadRefs[T2] == 0;
  }

  /// Records an rf choice of \p W for \p R (retain) or undoes it (release).
  template <typename EventT> void retain(const EventT &W, const EventT &R) {
    if (!Active)
      return;
    for (int T : {W.Thread, R.Thread})
      if (T >= 0)
        ++ThreadRefs[T];
  }
  template <typename EventT> void release(const EventT &W, const EventT &R) {
    if (!Active)
      return;
    for (int T : {W.Thread, R.Thread})
      if (T >= 0)
        --ThreadRefs[T];
  }

private:
  bool Active = false;
  std::vector<int> TwinPrev;        ///< per event: earlier twin event or -1
  std::vector<int> TwinThreadOf;    ///< per event: thread of that twin or -1
  std::vector<unsigned> ThreadRefs; ///< rf references per thread
};

//===----------------------------------------------------------------------===//
// JavaScript candidate space and its reduction (EngineConfig::Reduction)
//===----------------------------------------------------------------------===//

/// Program-level reduction context for one JS enumeration: the symmetry
/// classes plus the model spec (the rf sleep-set keys must mirror the
/// spec's sw definition and tear rule exactly).
struct JsReductionCtx {
  ThreadSymmetry Sym;
  ModelSpec Spec;
};

/// \returns true if the combination with path indices \p Idx is the
/// canonical representative of its orbit under the symmetry classes:
/// within each class, path indices must be non-decreasing by thread index.
/// Skipped combinations are thread permutations of a canonical one; the
/// orbit closure of the outcome set restores their outcomes.
bool canonicalCombo(const std::vector<size_t> &Idx,
                    const ThreadSymmetry &Sym) {
  for (const std::vector<unsigned> &Cls : Sym.Classes)
    for (size_t K = 1; K < Cls.size(); ++K)
      if (Idx[Cls[K - 1]] > Idx[Cls[K]])
        return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Value-aware static pruning (EngineConfig::StaticFastPath)
//===----------------------------------------------------------------------===//

/// [read idx][byte offset][eligible-writer position] -> allowed flag. The
/// writer positions index the same eligible-writer order the justifier
/// walks (and the sleep-set Explore masks use).
using StaticAllowMask = std::vector<std::vector<std::vector<uint8_t>>>;

/// Per thread, per path index: 1 iff StaticValues::pathFeasible. Dropping
/// an infeasible combination is sound: every candidate on it dies at the
/// contradicted read's constraintsAllow check before being emitted, so
/// its valid-outcome contribution is empty — and under reduction, orbit
/// siblings of an infeasible canonical combination choose the same path
/// multiset, so they are infeasible too and the orbit closure of the
/// empty set stays empty.
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
/// bookkeeping the justifier needs. Generic over the relation tier.
template <typename RelT> struct JsBase {
  BasicCandidateExecution<RelT> CE;
  std::vector<EventId> Reads;
  std::map<EventId, unsigned> RegOfEvent;
  std::vector<const ThreadPath *> Paths;
  /// Per-thread path indices of this combination (twin sleeps need to
  /// know that two threads of an exact class chose the same path).
  std::vector<size_t> PathIdx;
  /// The static writer-allow mask; empty unless static pruning is on.
  StaticAllowMask Allow;
};

template <typename RelT>
JsBase<RelT> buildJsBase(const Program &P,
                         std::vector<const ThreadPath *> Chosen) {
  JsBase<RelT> B;
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
  B.CE = BasicCandidateExecution<RelT>(std::move(Events));
  for (const std::vector<EventId> &Seq : ThreadEvents)
    for (size_t I = 0; I < Seq.size(); ++I)
      for (size_t J = I + 1; J < Seq.size(); ++J)
        B.CE.Sb.set(Seq[I], Seq[J]);
  for (const Event &E : B.CE.Events)
    if (E.isRead())
      B.Reads.push_back(E.Id);
  return B;
}

/// Builds the static writer-allow mask of one JS base from the value
/// analysis: a writer is masked off when it falls outside the read's
/// may-rf candidate set, or when its written byte contradicts one of the
/// path's MustEqual constraints on the read's register (any such
/// justification is cut by constraintsAllow the moment the read
/// completes, so skipping it up front loses nothing — not even a counted
/// candidate). Event-to-access mapping replays buildJsBase's event order:
/// one Init per buffer, then each thread's path accesses in sequence.
template <typename RelT>
StaticAllowMask buildJsStaticAllow(const analysis::StaticValues &SV,
                                   const JsBase<RelT> &B) {
  std::vector<int> AccOf(B.CE.Events.size(), -1);
  size_t Pos = 0;
  while (Pos < B.CE.Events.size() && B.CE.Events[Pos].Ord == Mode::Init)
    ++Pos;
  for (unsigned T = 0; T < B.Paths.size(); ++T)
    for (const Instr *I : B.Paths[T]->Accesses)
      AccOf[Pos++] = static_cast<int>(SV.AccessOfInstr.at(I));
  assert(Pos == B.CE.Events.size() && "event/access replay out of sync");

  StaticAllowMask Allow(B.Reads.size());
  for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
    const Event &R = B.CE.Events[B.Reads[RI]];
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
        if (W.Id == R.Id || W.Block != R.Block || !W.writesByte(Loc))
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

/// Recursive reads-byte-from justification of a JS base, byte by byte,
/// with register-constraint pruning (always), model-admission pruning
/// (when a model is supplied), and equivalence sleep sets (when a
/// reduction context is supplied).
template <typename RelT> class JsJustifier {
  using ExecT = BasicCandidateExecution<RelT>;

public:
  /// \p St, when non-null, receives the PrunedSubtrees, SleptBranches and
  /// StaticRfPruned counts.
  JsJustifier(JsBase<RelT> &B, const JsModel *Prune, int FirstWriterOnly,
              const std::function<bool(const ExecT &, const Outcome &)>
                  &Visit,
              const JsReductionCtx *Red, EngineStats *St)
      : B(B), Prune(Prune), FirstWriterOnly(FirstWriterOnly), Visit(Visit),
        Red(Red), St(St),
        StaticAllow(B.Allow.empty() ? nullptr : &B.Allow) {
    if (Red) {
      B.CE.Rbf.clear();
      Twins.setup(Red->Sym, B.CE.Events, B.PathIdx);
      setupRfKeys();
    }
  }

  /// \returns false if the visitor stopped the enumeration.
  bool run() {
    B.CE.Rbf.clear();
    return justifyRead(0);
  }

private:
  /// rf sleep-set keys, precomputed per base: two writer choices for the
  /// same read byte are interchangeable when every input the model's
  /// verdict can depend on is equal. The derived hb is static — equal for
  /// every rbf choice — iff sw is forced empty, i.e. there is no SeqCst
  /// event at all (sw requires a SeqCst reader; RMWs are SeqCst by
  /// construction) and asw is empty.
  /// Under that precondition every SC rule is vacuous (each needs an sw
  /// pair or a SeqCst intervening event) and the solver's tot problem
  /// carries no constraints, so a candidate's verdict is a function of,
  /// per rbf edge: the byte value read, the static hb(R,W) bit (HBC2), the
  /// static "newer write hb-between" bit (HBC3), and the writer's
  /// contribution to the tear-free count. Writers agreeing on all four are
  /// keyed together and only the first is explored — the skipped subtrees
  /// produce byte-identical candidates, verdicts, and outcomes.
  void setupRfKeys() {
    KeysActive = B.CE.Asw.empty();
    for (const Event &E : B.CE.Events)
      if (E.Ord == Mode::SeqCst)
        KeysActive = false;
    if (!KeysActive)
      return;
    RelT Hb = B.CE.happensBefore(Red->Spec.Sw); // rbf is empty: static hb

    Explore.resize(B.Reads.size());
    for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
      const Event &R = B.CE.Events[B.Reads[RI]];

      // The writers the tear-free rule would count for R, over all byte
      // choices: tear-free writers of the exact range (plus Init under the
      // Strong rule). With at most one such writer the rule cannot fail,
      // so tearing does not discriminate writers for this read.
      auto TearCounts = [&](const Event &W) {
        if (!R.TearFree || !W.TearFree)
          return false;
        return sameWriteReadRange(W, R) ||
               (Red->Spec.Tear == TearRuleKind::Strong &&
                W.Ord == Mode::Init);
      };
      unsigned CountingWriters = 0;
      for (const Event &W : B.CE.Events)
        if (W.Id != R.Id && W.Block == R.Block && TearCounts(W) &&
            W.writeBegin() < R.readEnd() && R.readBegin() < W.writeEnd())
          ++CountingWriters;
      bool TearDiscriminates = CountingWriters > 1;

      Explore[RI].resize(R.readEnd() - R.readBegin());
      for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc) {
        struct Key {
          uint8_t Val;
          bool Hbc2, Hbc3;
          unsigned TearK;
          bool operator==(const Key &O) const {
            return Val == O.Val && Hbc2 == O.Hbc2 && Hbc3 == O.Hbc3 &&
                   TearK == O.TearK;
          }
        };
        std::vector<Key> Keys;
        std::vector<uint8_t> &Mask = Explore[RI][Loc - R.readBegin()];
        for (const Event &W : B.CE.Events) {
          if (W.Id == R.Id || W.Block != R.Block || !W.writesByte(Loc))
            continue;
          Key K;
          K.Val = W.writtenByteAt(Loc);
          K.Hbc2 = Hb.get(R.Id, W.Id);
          // HBC3 mirrors checkHbConsistency3 exactly, including its
          // block-agnostic writesByte scan.
          K.Hbc3 = false;
          for (const Event &C : B.CE.Events)
            if (Hb.get(W.Id, C.Id) && Hb.get(C.Id, R.Id) &&
                C.writesByte(Loc)) {
              K.Hbc3 = true;
              break;
            }
          K.TearK =
              (TearDiscriminates && TearCounts(W)) ? W.Id + 1 : 0;
          bool Fresh =
              std::find(Keys.begin(), Keys.end(), K) == Keys.end();
          Keys.push_back(K);
          Mask.push_back(Fresh ? 1 : 0);
        }
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Enumeration
  //===--------------------------------------------------------------------===//

  bool justifyRead(size_t ReadIdx) {
    if (ReadIdx == B.Reads.size())
      return emit();
    return justifyByte(ReadIdx, B.CE.Events[B.Reads[ReadIdx]].readBegin());
  }

  bool justifyByte(size_t ReadIdx, unsigned Loc) {
    Event &R = B.CE.Events[B.Reads[ReadIdx]];
    if (Loc == R.readEnd()) {
      // The read's value is complete; prune against the path constraints,
      // then against the model's tot-independent axioms (monotone in the
      // justified prefix, so the whole subtree dies with it).
      auto RegIt = B.RegOfEvent.find(R.Id);
      assert(RegIt != B.RegOfEvent.end() && "read event without a register");
      uint64_t Value = valueOfBytes(R.ReadBytes);
      if (!constraintsAllow(*B.Paths[R.Thread], RegIt->second, Value))
        return true;
      if (Prune && ReadIdx + 1 < B.Reads.size() &&
          !Prune->admitsPartial(B.CE)) {
        if (St)
          ++St->PrunedSubtrees;
        return true;
      }
      return justifyRead(ReadIdx + 1);
    }
    unsigned WriterPos = 0;
    for (const Event &W : B.CE.Events) {
      if (W.Id == R.Id || W.Block != R.Block || !W.writesByte(Loc))
        continue;
      unsigned ThisPos = WriterPos++;
      if (FirstWriterOnly >= 0 && ReadIdx == 0 && Loc == R.readBegin() &&
          ThisPos != static_cast<unsigned>(FirstWriterOnly))
        continue;
      // Static may-rf pruning: writers outside the read's candidate set
      // only produce model-invalid or constraint-refuted candidates
      // (StaticValues' exclusion rules are implied by every backend's
      // validity axioms), so the subtree cannot contribute an outcome.
      // Checked before the sleep sets: an excluded writer's whole rf-key
      // class is excluded with it (the keys subsume the exclusion bits),
      // so sleeping siblings never rely on a skipped representative.
      if (StaticAllow &&
          !(*StaticAllow)[ReadIdx][Loc - R.readBegin()][ThisPos]) {
        if (St)
          ++St->StaticRfPruned;
        continue;
      }
      if (Red) {
        bool Asleep =
            (KeysActive &&
             !Explore[ReadIdx][Loc - R.readBegin()][ThisPos]) ||
            Twins.asleep(W, R);
        if (Asleep) {
          if (St)
            ++St->SleptBranches;
          continue;
        }
      }
      B.CE.Rbf.push_back({Loc, W.Id, R.Id});
      R.ReadBytes[Loc - R.Index] = W.writtenByteAt(Loc);
      Twins.retain(W, R);
      bool Continue = justifyByte(ReadIdx, Loc + 1);
      Twins.release(W, R);
      B.CE.Rbf.pop_back();
      if (!Continue)
        return false;
    }
    return true;
  }

  bool emit() {
    Outcome O;
    for (const auto &[Id, Reg] : B.RegOfEvent)
      O.add(B.CE.Events[Id].Thread, Reg,
            valueOfBytes(B.CE.Events[Id].ReadBytes));
    return Visit(B.CE, O);
  }

  JsBase<RelT> &B;
  const JsModel *Prune;
  int FirstWriterOnly;
  const std::function<bool(const ExecT &, const Outcome &)> &Visit;
  const JsReductionCtx *Red;
  EngineStats *St;
  const StaticAllowMask *StaticAllow;

  // Reduction state (set up iff Red).
  bool KeysActive = false;
  /// [read idx][byte offset][eligible-writer position] -> explore flag.
  std::vector<std::vector<std::vector<uint8_t>>> Explore;
  TwinSleep Twins;
};

/// The JavaScript core of the enumeration driver: one base per explored
/// path combination. The combo filter keeps canonical combinations only
/// under a reduction context, and drops (and counts) statically
/// infeasible ones under a value analysis.
template <typename RelT> struct JsCore {
  using ExecT = BasicCandidateExecution<RelT>;
  using BaseT = JsBase<RelT>;
  using ResultT = BasicEnumerationResult<RelT>;
  using VisitFn = std::function<bool(const ExecT &, const Outcome &)>;

  const Program &P;
  const JsModel *Prune;
  const JsReductionCtx *Red;
  const analysis::StaticValues *SV;
  PathSpace<ThreadPath> Space;
  size_t Combos;

  JsCore(const Program &P, const JsModel *Prune,
         const JsReductionCtx *Red = nullptr,
         const analysis::StaticValues *SV = nullptr)
      : P(P), Prune(Prune), Red(Red), SV(SV), Space(P, enumeratePaths),
        Combos(Space.Combos) {}

  template <typename FnT> bool forEachBase(EngineStats *St, FnT &&Fn) const {
    std::vector<std::vector<uint8_t>> Feasible;
    if (SV)
      Feasible = feasiblePaths(Space, *SV);
    for (size_t C = 0; C < Space.Combos; ++C) {
      std::vector<size_t> Idx = Space.indices(C);
      if (Red && !canonicalCombo(Idx, Red->Sym))
        continue;
      if (SV && !comboFeasible(Idx, Feasible)) {
        // Counted by the thread that builds bases, so the counter is
        // deterministic across Threads.
        if (St)
          ++St->StaticPathsPruned;
        continue;
      }
      BaseT B = buildJsBase<RelT>(P, Space.chosen(Idx));
      B.PathIdx = std::move(Idx);
      if (SV)
        B.Allow = buildJsStaticAllow(*SV, B);
      if (!Fn(B))
        return false;
    }
    return true;
  }

  /// \returns the number of writers eligible for the first byte of the
  /// first read (work items index into them in event order, the order the
  /// justifier explores them in).
  unsigned firstWriters(const BaseT &B) const {
    if (B.Reads.empty())
      return 0;
    const Event &R = B.CE.Events[B.Reads[0]];
    unsigned Count = 0;
    for (const Event &W : B.CE.Events)
      Count += W.Id != R.Id && W.Block == R.Block &&
               W.writesByte(R.readBegin());
    return Count;
  }

  bool justify(BaseT &B, int FirstWriter, const VisitFn &Visit,
               EngineStats *St) const {
    return JsJustifier<RelT>(B, Prune, FirstWriter, Visit, Red, St).run();
  }
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

/// Enumerates rbf justifications and coherence orders on top of an ARM
/// skeleton. With a model to prune by, two sound cuts apply, both a
/// function of the justification stack alone:
///
///   - granule-atomic reads: a read takes every byte of one coherence
///     granule from one writer. Tearing a granule across writers W1
///     co-before W2 gives fr R->W2 on one byte and rbf W2->R on the other:
///     an rfe/fre cycle in ob when W2 is external, a per-byte po-loc cycle
///     when it is on R's thread — inconsistent under every co;
///   - monotone admission: once a read's bytes are complete, the subtree
///     is cut when armRefutedForEveryCo refutes the rbf prefix. The three
///     §4 axioms only gain edges as rbf grows, as they do as co grows.
class ArmJustifier {
public:
  /// \p St, when non-null, receives the PrunedSubtrees count.
  ArmJustifier(const ArmSkeleton &S, const Armv8Model *Prune,
               int FirstWriterOnly,
               const std::function<bool(const ArmExecution &,
                                        const Outcome &)> &Visit,
               EngineStats *St)
      : S(S), X(S.Exec), Prune(Prune), FirstWriterOnly(FirstWriterOnly),
        Visit(Visit), St(St) {
    // The granules depend on the writes alone; seed them (Init first)
    // once. forEachCoherenceCompletion restores the seeds after each walk.
    X.Co = X.computeGranules();
    for (const ArmEvent &E : X.Events) {
      if (!E.isRead())
        continue;
      Reads.push_back(E.Id);
      // SameGranule[K]: byte K of the read shares a granule with byte K-1.
      std::vector<uint8_t> Same(E.end() - E.begin(), 0);
      if (Prune)
        for (const CoGranule &G : X.Co)
          if (G.Block == E.Block)
            for (unsigned Loc = std::max(G.Begin + 1, E.begin() + 1);
                 Loc < std::min(G.End, E.end()); ++Loc)
              Same[Loc - E.begin()] = 1;
      SameGranule.push_back(std::move(Same));
    }
  }

  bool run() { return justifyRead(0); }

private:
  bool justifyRead(size_t ReadIdx) {
    if (ReadIdx == Reads.size())
      return forEachCoherenceCompletion(X, [this] { return emit(); });
    return justifyByte(ReadIdx, X.Events[Reads[ReadIdx]].begin());
  }

  bool justifyByte(size_t ReadIdx, unsigned Loc) {
    ArmEvent &R = X.Events[Reads[ReadIdx]];
    if (Loc == R.end()) {
      auto RegIt = S.RegOfEvent.find(R.Id);
      assert(RegIt != S.RegOfEvent.end() && "read event without a register");
      uint64_t Value = valueOfBytes(R.Bytes);
      if (!armConstraintsAllow(*S.Paths[R.Thread], RegIt->second, Value))
        return true;
      if (Prune && armRefutedForEveryCo(X)) {
        if (St)
          ++St->PrunedSubtrees;
        return true;
      }
      return justifyRead(ReadIdx + 1);
    }
    // A byte sharing the previous byte's granule takes its writer.
    bool Tied = SameGranule[ReadIdx][Loc - R.begin()];
    EventId PrevWriter = Tied ? X.Rbf.back().Writer : 0;
    unsigned WriterPos = 0;
    for (const ArmEvent &W : X.Events) {
      if (!W.isWrite() || W.Id == R.Id || W.Block != R.Block ||
          !W.touchesByte(Loc))
        continue;
      unsigned ThisPos = WriterPos++;
      if (FirstWriterOnly >= 0 && ReadIdx == 0 && Loc == R.begin() &&
          ThisPos != static_cast<unsigned>(FirstWriterOnly))
        continue;
      if (Tied && W.Id != PrevWriter) {
        if (St)
          ++St->PrunedSubtrees;
        continue;
      }
      X.Rbf.push_back({Loc, W.Id, R.Id});
      R.Bytes[Loc - R.Index] = W.byteAt(Loc);
      bool Continue = justifyByte(ReadIdx, Loc + 1);
      X.Rbf.pop_back();
      if (!Continue)
        return false;
    }
    return true;
  }

  bool emit() {
    Outcome O;
    for (const auto &[Id, Reg] : S.RegOfEvent)
      O.add(X.Events[Id].Thread, Reg, valueOfBytes(X.Events[Id].Bytes));
    return Visit(X, O);
  }

  const ArmSkeleton &S;
  ArmExecution X;
  const Armv8Model *Prune;
  std::vector<EventId> Reads;
  /// [read idx][byte offset] -> 1 when the byte must take the previous
  /// byte's writer; all zero unless pruning.
  std::vector<std::vector<uint8_t>> SameGranule;
  int FirstWriterOnly;
  const std::function<bool(const ArmExecution &, const Outcome &)> &Visit;
  EngineStats *St;
};

/// The ARMv8 core of the enumeration driver: one skeleton per path
/// combination, justified with the granule and admission cuts when a
/// model is supplied (no sleep sets or static analysis).
struct ArmCore {
  using ExecT = ArmExecution;
  using BaseT = ArmSkeleton;
  using ResultT = ArmEnumerationResult;
  using VisitFn = std::function<bool(const ExecT &, const Outcome &)>;

  const ArmProgram &P;
  const Armv8Model *Prune;
  PathSpace<ArmThreadPath> Space;
  size_t Combos;

  ArmCore(const ArmProgram &P, const Armv8Model *Prune)
      : P(P), Prune(Prune), Space(P, enumerateArmPaths),
        Combos(Space.Combos) {}

  template <typename FnT> bool forEachBase(EngineStats *, FnT &&Fn) const {
    for (size_t C = 0; C < Space.Combos; ++C) {
      ArmSkeleton S = buildArmSkeleton(P, Space.chosen(Space.indices(C)));
      if (!Fn(S))
        return false;
    }
    return true;
  }

  unsigned firstWriters(const BaseT &S) const {
    for (const ArmEvent &R : S.Exec.Events) {
      if (!R.isRead())
        continue;
      unsigned Count = 0;
      for (const ArmEvent &W : S.Exec.Events)
        Count += W.isWrite() && W.Id != R.Id && W.Block == R.Block &&
                 W.touchesByte(R.begin());
      return Count;
    }
    return 0;
  }

  bool justify(BaseT &S, int FirstWriter, const VisitFn &Visit,
               EngineStats *St) const {
    return ArmJustifier(S, Prune, FirstWriter, Visit, St).run();
  }
};

//===----------------------------------------------------------------------===//
// Target-architecture candidate space
//===----------------------------------------------------------------------===//

/// The materialised base of a compiled target program. Target programs are
/// straight-line (the §6.3 fragment), so there is exactly one control-flow
/// combination; the candidate space is rf justifications × per-location
/// coherence orders. Generic over the relation tier.
template <typename RelT> struct TargetBase {
  BasicTargetExecution<RelT> X;
  std::vector<EventId> Reads;
  std::map<EventId, unsigned> RegOfEvent;
  /// [read idx][eligible-writer position] -> allowed flag; empty unless
  /// static pruning is on (see buildTargetStaticAllow).
  std::vector<std::vector<uint8_t>> Allow;
};

template <typename RelT>
TargetBase<RelT> buildTargetBase(const CompiledTarget &CT) {
  TargetBase<RelT> B;
  std::vector<TargetEvent> Events;
  for (unsigned L = 0; L < CT.NumLocs; ++L) {
    TargetEvent Init;
    Init.Id = static_cast<EventId>(Events.size());
    Init.Thread = -1;
    Init.Kind = TKind::Write;
    Init.Loc = L;
    Init.WriteVal = 0;
    Init.IsInit = true;
    Events.push_back(Init);
  }
  std::vector<std::vector<EventId>> ThreadEvents(CT.Threads.size());
  for (unsigned T = 0; T < CT.Threads.size(); ++T) {
    for (const TargetInstr &I : CT.Threads[T]) {
      TargetEvent E;
      E.Id = static_cast<EventId>(Events.size());
      E.Thread = static_cast<int>(T);
      E.Kind = I.Kind;
      E.Loc = I.Loc;
      E.WriteVal = I.Value;
      E.Acq = I.Acq;
      E.Rel = I.Rel;
      E.Sc = I.Sc;
      E.Fence = I.Fence;
      E.SourceIdx = I.SourceIdx;
      if (E.isRead())
        B.RegOfEvent[E.Id] = I.DstReg;
      Events.push_back(E);
      ThreadEvents[T].push_back(E.Id);
    }
  }
  B.X = BasicTargetExecution<RelT>(std::move(Events), CT.NumLocs);
  for (const std::vector<EventId> &Seq : ThreadEvents)
    for (size_t I = 0; I < Seq.size(); ++I)
      for (size_t J = I + 1; J < Seq.size(); ++J)
        B.X.Po.set(Seq[I], Seq[J]);
  for (const TargetEvent &E : B.X.Events)
    if (E.isRead())
      B.Reads.push_back(E.Id);
  return B;
}

/// The target flavour of the static writer-allow mask: [read idx]
/// [eligible-writer position] (cells are width-1, so no byte axis). The
/// event-to-access mapping replays buildTargetBase's order: one init
/// event per location, then every thread's instructions in sequence
/// (fences included in the numbering, mapped to -1 by the analysis).
/// The exclusion rules are refuted by per-location coherence on every
/// backend — targetScPerLocation on five of them, and ImmLite's
/// COHERENCE axiom (Hb;Eco irreflexive, init first in co) independently.
template <typename RelT>
std::vector<std::vector<uint8_t>>
buildTargetStaticAllow(const analysis::StaticValues &SV,
                       const TargetBase<RelT> &B, const CompiledTarget &CT) {
  std::vector<int> AccOf(B.X.Events.size(), -1);
  size_t Pos = CT.NumLocs; // init events map to no access
  for (unsigned T = 0; T < CT.Threads.size(); ++T)
    for (unsigned I = 0; I < CT.Threads[T].size(); ++I)
      AccOf[Pos++] = SV.AccessOfTargetInstr[T][I];
  assert(Pos == B.X.Events.size() && "event/access replay out of sync");

  std::vector<std::vector<uint8_t>> Allow(B.Reads.size());
  for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
    EventId R = B.Reads[RI];
    const analysis::ReadMayRf *MR =
        SV.readMayRf(static_cast<unsigned>(AccOf[R]));
    assert(MR && "read event mapped to a non-read access");
    const analysis::MayRfByte &MB = MR->Bytes[0];
    for (const TargetEvent &W : B.X.Events) {
      if (!W.isWrite() || W.Id == R || W.Loc != B.X.Events[R].Loc)
        continue;
      bool Ok = W.IsInit
                    ? MB.Init
                    : std::binary_search(MB.Writers.begin(),
                                         MB.Writers.end(),
                                         static_cast<unsigned>(AccOf[W.Id]));
      Allow[RI].push_back(Ok ? 1 : 0);
    }
  }
  return Allow;
}

/// Enumerates rf justifications and coherence orders of a target base,
/// pruning rf subtrees via the backend's monotone admission check and
/// sleeping exact-twin rf choices when a symmetry is supplied. Only the
/// twin rule applies at this tier: value-keyed rf merging is unsound here
/// because fr and co verdicts depend on the rf writer's identity, not
/// just the value read.
template <typename RelT> class TargetJustifier {
  using ExecT = BasicTargetExecution<RelT>;

public:
  /// \p St, when non-null, receives the PrunedSubtrees, SleptBranches and
  /// StaticRfPruned counts.
  TargetJustifier(TargetBase<RelT> &B, const TargetModel *Prune,
                  int FirstWriterOnly,
                  const std::function<bool(const ExecT &, const Outcome &)>
                      &Visit,
                  const ThreadSymmetry *Sym, EngineStats *St)
      : B(B), Prune(Prune), FirstWriterOnly(FirstWriterOnly), Visit(Visit),
        St(St), StaticAllow(B.Allow.empty() ? nullptr : &B.Allow) {
    if (Sym)
      Twins.setup(*Sym, B.X.Events, /*PathIdx=*/{});
  }

  bool run() { return justify(0); }

private:
  bool justify(size_t ReadIdx) {
    if (ReadIdx == B.Reads.size())
      return chooseCo(0);
    EventId R = B.Reads[ReadIdx];
    unsigned WriterPos = 0;
    for (const TargetEvent &W : B.X.Events) {
      if (!W.isWrite() || W.Id == R || W.Loc != B.X.Events[R].Loc)
        continue;
      unsigned ThisPos = WriterPos++;
      if (FirstWriterOnly >= 0 && ReadIdx == 0 &&
          ThisPos != static_cast<unsigned>(FirstWriterOnly))
        continue;
      // Static may-rf pruning; see JsJustifier — the excluded writers are
      // same-thread-as-reader or shadowed-init choices, which the twin
      // sleep rule never sleeps, so the two filters cannot interact.
      if (StaticAllow && !(*StaticAllow)[ReadIdx][ThisPos]) {
        if (St)
          ++St->StaticRfPruned;
        continue;
      }
      if (Twins.asleep(W, B.X.Events[R])) {
        if (St)
          ++St->SleptBranches;
        continue;
      }
      B.X.Rf.set(W.Id, R);
      B.X.Events[R].ReadVal = W.WriteVal;
      Twins.retain(W, B.X.Events[R]);
      bool Continue = true;
      if (Prune && !Prune->admitsPartial(B.X)) {
        if (St)
          ++St->PrunedSubtrees;
      } else {
        Continue = justify(ReadIdx + 1);
      }
      Twins.release(W, B.X.Events[R]);
      B.X.Rf.clear(W.Id, R);
      if (!Continue)
        return false;
    }
    return true;
  }

  bool chooseCo(unsigned Loc) {
    if (Loc == B.X.CoPerLoc.size())
      return emit();
    std::vector<EventId> Writers;
    EventId Init = ~0u;
    for (const TargetEvent &E : B.X.Events) {
      if (!E.isWrite() || E.Loc != Loc)
        continue;
      if (E.IsInit)
        Init = E.Id;
      else
        Writers.push_back(E.Id);
    }
    std::sort(Writers.begin(), Writers.end());
    do {
      B.X.CoPerLoc[Loc].clear();
      if (Init != ~0u)
        B.X.CoPerLoc[Loc].push_back(Init);
      for (EventId W : Writers)
        B.X.CoPerLoc[Loc].push_back(W);
      if (!chooseCo(Loc + 1))
        return false;
    } while (std::next_permutation(Writers.begin(), Writers.end()));
    B.X.CoPerLoc[Loc].clear();
    return true;
  }

  bool emit() {
    Outcome O;
    for (const auto &[Id, Reg] : B.RegOfEvent)
      O.add(B.X.Events[Id].Thread, Reg, B.X.Events[Id].ReadVal);
    return Visit(B.X, O);
  }

  TargetBase<RelT> &B;
  const TargetModel *Prune;
  int FirstWriterOnly;
  const std::function<bool(const ExecT &, const Outcome &)> &Visit;
  EngineStats *St;
  const std::vector<std::vector<uint8_t>> *StaticAllow;
  TwinSleep Twins;
};

/// The target core of the enumeration driver. Target programs are
/// straight-line, so the space has exactly one base.
template <typename RelT> struct TargetCore {
  using ExecT = BasicTargetExecution<RelT>;
  using BaseT = TargetBase<RelT>;
  using ResultT = BasicTargetEnumerationResult<RelT>;
  using VisitFn = std::function<bool(const ExecT &, const Outcome &)>;

  const CompiledTarget &CT;
  const TargetModel *Prune;
  const ThreadSymmetry *Sym = nullptr;
  const analysis::StaticValues *SV = nullptr;
  size_t Combos = 1;

  template <typename FnT> bool forEachBase(EngineStats *, FnT &&Fn) const {
    BaseT B = buildTargetBase<RelT>(CT);
    if (SV)
      B.Allow = buildTargetStaticAllow(*SV, B, CT);
    return Fn(B);
  }

  unsigned firstWriters(const BaseT &B) const {
    if (B.Reads.empty())
      return 0;
    const TargetEvent &R = B.X.Events[B.Reads[0]];
    unsigned Count = 0;
    for (const TargetEvent &W : B.X.Events)
      Count += W.isWrite() && W.Id != R.Id && W.Loc == R.Loc;
    return Count;
  }

  bool justify(BaseT &B, int FirstWriter, const VisitFn &Visit,
               EngineStats *St) const {
    return TargetJustifier<RelT>(B, Prune, FirstWriter, Visit, Sym, St).run();
  }
};

//===----------------------------------------------------------------------===//
// Observability and the shared enumerateOutcomes tail
//===----------------------------------------------------------------------===//

/// Past this many events the brute oracle's linear-extension walk does not
/// finish in useful time, so the JS door answers a Brute request with
/// propagation instead. A Propagate request is never rerouted.
constexpr unsigned BruteMaxEvents = 256;

/// Picks the relation tier of an enumerateOutcomes door — "inline" up to
/// 64 events unless \p ForceDyn, else the heap "dyn" tier — and traces
/// the choice.
const char *selectTier(const char *Entry, unsigned Events, bool ForceDyn,
                       SolverKind Kind) {
  const char *Tier =
      Events <= Relation::MaxSize && !ForceDyn ? "inline" : "dyn";
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
                     uint64_t ValidCandidates, const std::string &Tier) {
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
  if (!Tier.empty())
    R.counter("engine.tier." + Tier).add(1);
}

/// The static DRF-SC fast path shared by both enumerateOutcomes doors:
/// when the precomputed classification certifies DRF, answer with the SC
/// interleaving table under Tier "static" and report that effort to the
/// trace and the obs registry. \returns std::nullopt for
/// programs the certificate does not cover (the caller runs the full
/// enumeration, with the same analysis pruning it).
template <typename ProgT>
std::optional<OutcomeSummary>
tryStaticFastPath(const ProgT &P, const analysis::StaticClassification &C,
                  const char *Entry, unsigned Events, SolverKind Kind) {
  if (!C.StaticallyDrf)
    return std::nullopt;
  OutcomeSummary S;
  uint64_t States = 0;
  S.Allowed = analysis::enumerateScOutcomes(P, &States);
  // The SC walk's scheduler states stand in for candidates: both count
  // deterministic exploration effort, and the drf-fastpath win shows up
  // as the drop against the full walk's candidate count.
  S.CandidatesConsidered = States;
  S.ValidCandidates = S.Allowed.size();
  S.Tier = "static";
  S.SolverUsed = Kind;
  traceEvent("drf-fastpath", {{"entry", Entry},
                              {"events", static_cast<double>(Events)},
                              {"states", static_cast<double>(States)},
                              {"outcomes",
                               static_cast<double>(S.Allowed.size())}});
  if (obs::metricsEnabled())
    obs::registry().counter("engine.drf_fastpath").add(1);
  recordEngineObs(EngineStats(), S.CandidatesConsidered, S.ValidCandidates,
                  S.Tier);
  return S;
}

/// The shared tail of both enumerateOutcomes doors: under reduction
/// (\p Sym non-null), closes the outcome set under the symmetry orbits to
/// restore the outcomes of slept and non-canonical subtrees; then stamps
/// the tier and solver and reports the effort \p St.
OutcomeSummary finishOutcomes(OutcomeSummary S, const char *Entry,
                              const ThreadSymmetry *Sym, const char *Tier,
                              SolverKind Kind,
                              const analysis::StaticValues *SV,
                              const EngineStats &St) {
  if (Sym && !Sym->empty())
    S.Allowed = closeOutcomes(std::move(S.Allowed), *Sym);
  S.Tier = Tier;
  S.SolverUsed = Kind;
  // How much the value-aware static tier cut from this full enumeration.
  if (SV)
    traceEvent("static-prune",
               {{"entry", Entry},
                {"rf_pruned", static_cast<double>(St.StaticRfPruned)},
                {"paths_pruned", static_cast<double>(St.StaticPathsPruned)},
                {"may_rf_excluded", static_cast<double>(SV->MayRfExcluded)}});
  recordEngineObs(St, S.CandidatesConsidered, S.ValidCandidates, S.Tier);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// JavaScript entry points
//===----------------------------------------------------------------------===//

bool ExecutionEngine::forEachCandidate(
    const Program &P,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit) const {
  checkFixedCapacity(P);
  return walkCore(JsCore<Relation>(P, /*Prune=*/nullptr), nullptr, Visit);
}

bool ExecutionEngine::forEachAdmittedCandidate(
    const Program &P, const JsModel &M,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit) const {
  checkFixedCapacity(P);
  EngineStats Local;
  bool Completed =
      walkCore(JsCore<Relation>(P, Cfg.Prune ? &M : nullptr), &Local, Visit);
  Stats = Local;
  return Completed;
}

EnumerationResult ExecutionEngine::enumerate(const Program &P,
                                             const JsModel &M) const {
  checkFixedCapacity(P);
  EngineStats Local;
  EnumerationResult R = enumerateCore(
      JsCore<Relation>(P, Cfg.Prune ? &M : nullptr), M, effectiveThreads(),
      Local);
  Stats = Local;
  return R;
}

OutcomeSummary ExecutionEngine::enumerateOutcomes(const Program &P,
                                                  const JsModel &M) const {
  checkCapacity(P);
  unsigned Events = programEventUpperBound(P);
  SolverKind Kind = M.solver().Kind.value_or(defaultSolverKind());
  std::optional<analysis::StaticValues> SV;
  if (Cfg.StaticFastPath) {
    // The fast path sits after the capacity gate (too-large programs keep
    // their typed rejection) and before solver/tier selection (no solver
    // runs on a statically-DRF program). When the DRF certificate does
    // not hold, the same analysis prunes the full walk below.
    SV.emplace(analysis::analyzeValues(P));
    if (std::optional<OutcomeSummary> S =
            tryStaticFastPath(P, SV->C, "js", Events, Kind)) {
      Stats = EngineStats();
      return *S;
    }
  }
  // A large Brute request goes to propagation. Only the solver changes:
  // the spec, and therefore the verdict table, is the model's.
  if (Events > BruteMaxEvents && Kind == SolverKind::Brute) {
    traceEvent("solver-dispatch",
               {{"entry", "js"},
                {"events", static_cast<double>(Events)},
                {"from", solverKindName(Kind)},
                {"to", solverKindName(SolverKind::Propagate)}});
    return enumerateOutcomes(P,
                             JsModel(M.spec(), SolverConfig::propagate()));
  }
  const char *Tier = selectTier("js", Events, Cfg.ForceDynRelation, Kind);
  bool SmallTier = std::string_view(Tier) == "inline";
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  // Equivalence-aware enumeration: canonical path combinations and rf
  // sleep sets inside the justifier; finishOutcomes closes the orbits.
  std::optional<JsReductionCtx> Red;
  if (Cfg.Reduction)
    Red.emplace(JsReductionCtx{threadSymmetry(P), M.spec()});
  const JsReductionCtx *RedP = Red ? &*Red : nullptr;
  const analysis::StaticValues *SVP = SV ? &*SV : nullptr;
  const JsModel *Prune = Cfg.Prune ? &M : nullptr;
  EngineStats Local;
  OutcomeSummary S =
      SmallTier ? summarize(enumerateCore(
                      JsCore<Relation>(P, Prune, RedP, SVP), M,
                      effectiveThreads(), Local))
                : summarize(enumerateCore(
                      JsCore<DynRelation>(P, Prune, RedP, SVP), M,
                      effectiveThreads(), Local));
  Stats = Local;
  return finishOutcomes(std::move(S), "js", RedP ? &RedP->Sym : nullptr,
                        Tier, Kind, SVP, Local);
}

ScDrfReport ExecutionEngine::scDrf(const Program &P, const JsModel &M) const {
  checkFixedCapacity(P);
  EngineStats Local;
  ScDrfReport Report;
  walkCore(JsCore<Relation>(P, Cfg.Prune ? &M : nullptr), &Local,
           [&](const CandidateExecution &CE, const Outcome &O) {
             (void)O;
             if (!M.allows(CE))
               return true;
             if (Report.DataRaceFree && !isRaceFree(CE, M.spec())) {
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
  return ArmCore(P, /*Prune=*/nullptr).forEachBase(nullptr, Visit);
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

bool ExecutionEngine::forEachTargetCandidate(
    const CompiledTarget &CT,
    const std::function<bool(const TargetExecution &, const Outcome &)>
        &Visit) const {
  checkFixedCapacity(CT);
  return walkCore(TargetCore<Relation>{CT, /*Prune=*/nullptr}, nullptr,
                  Visit);
}

TargetEnumerationResult
ExecutionEngine::enumerate(const CompiledTarget &CT,
                           const TargetModel &M) const {
  checkFixedCapacity(CT);
  EngineStats Local;
  TargetEnumerationResult R =
      enumerateCore(TargetCore<Relation>{CT, Cfg.Prune ? &M : nullptr}, M,
                    effectiveThreads(), Local);
  Stats = Local;
  return R;
}

OutcomeSummary ExecutionEngine::enumerateOutcomes(const CompiledTarget &CT,
                                                  const TargetModel &M) const {
  checkCapacity(CT);
  unsigned Events = targetEventBound(CT);
  SolverKind Kind = defaultSolverKind();
  std::optional<analysis::StaticValues> SV;
  if (Cfg.StaticFastPath) {
    SV.emplace(analysis::analyzeValues(CT));
    if (std::optional<OutcomeSummary> S =
            tryStaticFastPath(CT, SV->C, "target", Events, Kind)) {
      Stats = EngineStats();
      return *S;
    }
  }
  const char *Tier = selectTier("target", Events, Cfg.ForceDynRelation, Kind);
  bool SmallTier = std::string_view(Tier) == "inline";
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  std::optional<ThreadSymmetry> Sym;
  if (Cfg.Reduction)
    Sym.emplace(threadSymmetry(CT));
  const ThreadSymmetry *SymP = Sym ? &*Sym : nullptr;
  const analysis::StaticValues *SVP = SV ? &*SV : nullptr;
  const TargetModel *Prune = Cfg.Prune ? &M : nullptr;
  EngineStats Local;
  OutcomeSummary S =
      SmallTier ? summarize(enumerateCore(
                      TargetCore<Relation>{CT, Prune, SymP, SVP}, M,
                      effectiveThreads(), Local))
                : summarize(enumerateCore(
                      TargetCore<DynRelation>{CT, Prune, SymP, SVP}, M,
                      effectiveThreads(), Local));
  Stats = Local;
  return finishOutcomes(std::move(S), "target", SymP, Tier, Kind, SVP, Local);
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
