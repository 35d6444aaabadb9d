//===- engine/ExecutionEngine.cpp -----------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "analysis/ScEnumeration.h"
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
#include <memory>
#include <span>
#include <stdexcept>
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

/// Merges one work item's result into \p Into (items in order, so the
/// first witness of an outcome wins).
template <typename ResultT> void mergeItem(ResultT &Into, ResultT &Item) {
  Into.CandidatesConsidered += Item.CandidatesConsidered;
  validCount(Into) += validCount(Item);
  for (auto &[O, Witness] : Item.Allowed)
    Into.Allowed.emplace(O, std::move(Witness));
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
/// slept first-writer items simply produce nothing: the rf sleep-set keys
/// are fixed per base, so sharding cannot change what is explored.
template <typename CoreT, typename ModelT>
typename CoreT::ResultT enumerateCore(const CoreT &Core, const ModelT &M,
                                      unsigned Threads, EngineStats &Stats) {
  using BaseT = typename CoreT::BaseT;
  using ResultT = typename CoreT::ResultT;
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
        [&](auto &X, const Outcome &O) {
          accumulate(PerItem[I], M, X, O);
          return true;
        },
        &PerItemStats[I]);
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
/// bookkeeping the justifier needs.
struct JsBase {
  CandidateExecution CE;
  std::vector<EventId> Reads;
  std::map<EventId, unsigned> RegOfEvent;
  std::vector<const ThreadPath *> Paths;
  /// The static writer-allow mask; empty unless static pruning is on.
  StaticAllowMask Allow;
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
/// (when a model is supplied), and rf sleep-set keys (when the reduction
/// spec is supplied).
class JsJustifier {
public:
  /// \p St, when non-null, receives the PrunedSubtrees, SleptBranches and
  /// StaticRfPruned counts.
  JsJustifier(JsBase &B, const JsModel *Prune, int FirstWriterOnly,
              const std::function<bool(const CandidateExecution &,
                                       const Outcome &)> &Visit,
              const ModelSpec *Red, EngineStats *St)
      : B(B), Prune(Prune), FirstWriterOnly(FirstWriterOnly), Visit(Visit),
        Red(Red), St(St),
        StaticAllow(B.Allow.empty() ? nullptr : &B.Allow) {
    if (Red) {
      B.CE.Rbf.clear();
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
    Relation Hb = B.CE.happensBefore(Red->Sw); // rbf is empty: static hb

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
               (Red->Tear == TearRuleKind::Strong &&
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
      if (KeysActive && !Explore[ReadIdx][Loc - R.readBegin()][ThisPos]) {
        if (St)
          ++St->SleptBranches;
        continue;
      }
      B.CE.Rbf.push_back({Loc, W.Id, R.Id});
      R.ReadBytes[Loc - R.Index] = W.writtenByteAt(Loc);
      bool Continue = justifyByte(ReadIdx, Loc + 1);
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

  JsBase &B;
  const JsModel *Prune;
  int FirstWriterOnly;
  const std::function<bool(const CandidateExecution &, const Outcome &)>
      &Visit;
  const ModelSpec *Red; ///< the spec the rf keys read; null: no reduction
  EngineStats *St;
  const StaticAllowMask *StaticAllow;

  // Reduction state (set up iff Red).
  bool KeysActive = false;
  /// [read idx][byte offset][eligible-writer position] -> explore flag.
  std::vector<std::vector<std::vector<uint8_t>>> Explore;
};

/// The JavaScript core of the enumeration driver: one base per path
/// combination, minus (and counting) the statically infeasible ones under
/// a value analysis.
struct JsCore {
  using ExecT = CandidateExecution;
  using BaseT = JsBase;
  using ResultT = EnumerationResult;
  using VisitFn = std::function<bool(const ExecT &, const Outcome &)>;

  const Program &P;
  const JsModel *Prune;
  /// The spec the rf sleep-set keys read; null unless reducing.
  const ModelSpec *Red;
  const analysis::StaticValues *SV;
  PathSpace<ThreadPath> Space;
  size_t Combos;

  JsCore(const Program &P, const JsModel *Prune,
         const ModelSpec *Red = nullptr,
         const analysis::StaticValues *SV = nullptr)
      : P(P), Prune(Prune), Red(Red), SV(SV), Space(P, enumeratePaths),
        Combos(Space.Combos) {}

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
    return JsJustifier(B, Prune, FirstWriter, Visit, Red, St).run();
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

/// One column of a target walk: a compiled form and the backend judging it
/// (null for the unjudged candidate walk of forEachTargetCandidate).
struct TargetColumnSpec {
  const CompiledTarget *CT;
  const TargetModel *M;
};

/// The execution of a compiled form with no rf or co chosen yet; fills
/// \p RegOfEvent with each read's destination register when non-null.
TargetExecution
targetExecution(const CompiledTarget &CT,
                std::map<EventId, unsigned> *RegOfEvent = nullptr) {
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
      if (E.isRead() && RegOfEvent)
        (*RegOfEvent)[E.Id] = I.DstReg;
      Events.push_back(E);
      ThreadEvents[T].push_back(E.Id);
    }
  }
  TargetExecution X(std::move(Events), CT.NumLocs);
  for (const std::vector<EventId> &Seq : ThreadEvents)
    for (size_t I = 0; I < Seq.size(); ++I)
      for (size_t J = I + 1; J < Seq.size(); ++J)
        X.Po.set(Seq[I], Seq[J]);
  return X;
}

/// A compiled form inside a walk: its access-id map and what its backend
/// derives from po and the event kinds, built once per base over the
/// walk's numbering and shared by every work item. X, the form's own
/// execution, is kept only where a caller sees it (witnesses and the
/// candidate walk) and receives each such leaf through IdOf.
struct TargetColumn {
  const TargetModel *M = nullptr;
  TargetExecution X;
  /// Walk event id -> this form's event id.
  std::vector<EventId> IdOf;
  std::shared_ptr<const TargetStatics> Statics;
};

/// The materialised base of a target walk. Target programs are
/// straight-line (the §6.3 fragment), so there is exactly one base; the
/// candidate space is rf justifications × per-location coherence orders.
///
/// compileUni maps each source access to exactly one access
/// (TargetEvent::SourceIdx) and only adds fences, so every compiled form
/// of one program has the same access view (accessView): the same
/// writers per read, the same po-loc ∪ rf admission and the same
/// coherence permutations. The walk runs once over that view (X) and
/// judges each leaf for every column there: the shared axioms read no
/// fence, and each column's statics were built over the view.
struct TargetBase {
  TargetExecution X;
  /// po-loc of X, the admission's rf-independent half.
  std::shared_ptr<const Relation> PoLoc;
  std::vector<EventId> Reads;
  /// Per read, the writer the walk chose for it.
  std::vector<EventId> WriterOf;
  std::map<EventId, unsigned> RegOfEvent;
  /// [read idx][eligible-writer position] -> allowed flag; empty unless
  /// static pruning is on (see buildTargetStaticAllow).
  std::vector<std::vector<uint8_t>> Allow;
  std::vector<TargetColumn> Cols;
};

/// Builds the walk over \p Specs' compiled forms; \p KeepExecs keeps each
/// form's own execution for syncColumn.
TargetBase buildTargetBase(const std::vector<TargetColumnSpec> &Specs,
                           bool KeepExecs) {
  assert(!Specs.empty() && "a target walk needs a column");
  TargetBase B;
  std::map<EventId, unsigned> Regs;
  for (const TargetColumnSpec &Spec : Specs) {
    TargetColumn &C = B.Cols.emplace_back();
    C.M = Spec.M;
    C.X = targetExecution(*Spec.CT, B.Cols.size() == 1 ? &Regs
                                                              : nullptr);
    if (B.Cols.size() == 1) {
      B.X = accessView(C.X, C.IdOf);
    } else {
      for (const TargetEvent &E : C.X.Events)
        if (E.isAccess())
          C.IdOf.push_back(E.Id);
      bool Same = C.IdOf.size() == B.X.numEvents();
      for (size_t K = 0; Same && K < C.IdOf.size(); ++K) {
        const TargetEvent &A = B.X.Events[K];
        const TargetEvent &E = C.X.Events[C.IdOf[K]];
        Same = A.Kind == E.Kind && A.Loc == E.Loc && A.Thread == E.Thread &&
               A.WriteVal == E.WriteVal && A.SourceIdx == E.SourceIdx;
      }
      if (!Same)
        throw std::invalid_argument(
            "target columns compiled from different programs");
    }
    if (C.M)
      C.Statics = std::make_shared<const TargetStatics>(
          targetStatics(C.X, C.M->arch(), &C.IdOf));
    if (!KeepExecs)
      C.X = TargetExecution();
  }
  B.PoLoc = std::make_shared<const Relation>(B.X.poLoc());
  for (const TargetEvent &E : B.X.Events)
    if (E.isRead()) {
      B.RegOfEvent[E.Id] = Regs.at(B.Cols[0].IdOf[E.Id]);
      B.Reads.push_back(E.Id);
    }
  B.WriterOf.assign(B.Reads.size(), 0);
  return B;
}

/// Copies the walk's current rf, read values and coherence orders into
/// column \p C's execution through its access-id map.
void syncColumn(const TargetBase &B, TargetColumn &C) {
  C.X.Rf = Relation(C.X.numEvents());
  for (size_t RI = 0; RI < B.Reads.size(); ++RI) {
    EventId R = C.IdOf[B.Reads[RI]];
    C.X.Rf.set(C.IdOf[B.WriterOf[RI]], R);
    C.X.Events[R].ReadVal = B.X.Events[B.Reads[RI]].ReadVal;
  }
  for (size_t L = 0; L < B.X.CoPerLoc.size(); ++L) {
    const std::vector<EventId> &Walk = B.X.CoPerLoc[L];
    std::vector<EventId> &Order = C.X.CoPerLoc[L];
    Order.resize(Walk.size());
    for (size_t K = 0; K < Walk.size(); ++K)
      Order[K] = C.IdOf[Walk[K]];
  }
}

/// The target flavour of the static writer-allow mask: [read idx]
/// [eligible-writer position] (cells are width-1, so no byte axis). \p SV
/// is the analysis of the source program; each event takes the facts of
/// its source access (TargetEvent::SourceIdx), a read those of byte 0 of
/// its source range. In the uni-size fragment every access to a cell
/// covers exactly that cell, so that byte's may-rf writers and init flag
/// are the cell's. The exclusion rules are refuted by per-location
/// coherence on every backend — targetScPerLocation on five of them, and
/// ImmLite's COHERENCE axiom (Hb;Eco irreflexive, init first in co)
/// independently.
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
      if (!W.isWrite() || W.Id == R.Id || W.Loc != R.Loc)
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

/// Enumerates rf justifications and coherence orders of a target base,
/// pruning rf subtrees with the monotone admission check targetAdmits. No
/// sleep sets apply at this tier: value-keyed rf merging is unsound here
/// because fr and co verdicts depend on the rf writer's identity, not
/// just the value read.
class TargetJustifier {
public:
  using VisitFn = std::function<bool(TargetBase &, const Outcome &)>;

  /// \p St, when non-null, receives the PrunedSubtrees and StaticRfPruned
  /// counts.
  TargetJustifier(TargetBase &B, bool Prune, int FirstWriterOnly,
                  const VisitFn &Visit, EngineStats *St)
      : B(B), Prune(Prune), FirstWriterOnly(FirstWriterOnly), Visit(Visit),
        St(St), StaticAllow(B.Allow.empty() ? nullptr : &B.Allow) {}

  bool run() {
    // Coherence orders do not depend on rf: build them once, outside
    // every leaf.
    for (std::vector<EventId> &Order : B.X.CoPerLoc)
      Order.clear();
    for (const TargetEvent &E : B.X.Events)
      if (E.isWrite() && E.IsInit)
        B.X.CoPerLoc[E.Loc].push_back(E.Id);
    for (const TargetEvent &E : B.X.Events)
      if (E.isWrite() && !E.IsInit)
        B.X.CoPerLoc[E.Loc].push_back(E.Id);
    for (unsigned Loc = 0; Loc < B.X.CoPerLoc.size(); ++Loc) {
      const std::vector<EventId> &Order = B.X.CoPerLoc[Loc];
      unsigned First = !Order.empty() && B.X.Events[Order[0]].IsInit;
      if (Order.size() >= First + 2)
        MultiWriter.push_back({Loc, First});
    }
    return justify(0);
  }

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
      // Static may-rf pruning; see JsJustifier.
      if (StaticAllow && !(*StaticAllow)[ReadIdx][ThisPos]) {
        if (St)
          ++St->StaticRfPruned;
        continue;
      }
      B.X.Rf.set(W.Id, R);
      B.X.Events[R].ReadVal = W.WriteVal;
      B.WriterOf[ReadIdx] = W.Id;
      bool Continue = true;
      if (Prune && !targetAdmits(*B.PoLoc, B.X.Rf)) {
        if (St)
          ++St->PrunedSubtrees;
      } else {
        Continue = justify(ReadIdx + 1);
      }
      B.X.Rf.clear(W.Id, R);
      if (!Continue)
        return false;
    }
    return true;
  }

  /// Walks every coherence order at an rf leaf. run() set each
  /// location's order to init then its writers in id order; only the
  /// locations in MultiWriter (two or more non-init writers) are
  /// permuted, the earlier location outermost.
  bool chooseCo(size_t Idx) {
    if (Idx == MultiWriter.size())
      return emit();
    std::vector<EventId> &Order = B.X.CoPerLoc[MultiWriter[Idx].Loc];
    do {
      if (!chooseCo(Idx + 1))
        return false;
    } while (std::next_permutation(Order.begin() + MultiWriter[Idx].First,
                                   Order.end()));
    return true; // the last permutation wrapped back to id order
  }

  bool emit() {
    Outcome O;
    for (const auto &[Id, Reg] : B.RegOfEvent)
      O.add(B.X.Events[Id].Thread, Reg, B.X.Events[Id].ReadVal);
    return Visit(B, O);
  }

  TargetBase &B;
  bool Prune;
  int FirstWriterOnly;
  const VisitFn &Visit;
  EngineStats *St;
  const std::vector<std::vector<uint8_t>> *StaticAllow;
  /// A location whose writers chooseCo permutes, from position First of
  /// its order (past the init write).
  struct PermutedLoc {
    unsigned Loc;
    unsigned First;
  };
  std::vector<PermutedLoc> MultiWriter;
};

/// Per-column results of one target walk, in column order.
struct TargetWalkResult {
  std::vector<TargetEnumerationResult> Cols;
};

/// The target core of the enumeration driver: one walk for every column.
/// Target programs are straight-line, so the space has exactly one base.
struct TargetCore {
  using BaseT = TargetBase;
  using ResultT = TargetWalkResult;
  using VisitFn = typename TargetJustifier::VisitFn;

  const std::vector<TargetColumnSpec> &Specs;
  bool Prune;
  const analysis::StaticValues *SV = nullptr;
  /// Keep each form's own execution: for the enumerate() door's witnesses
  /// and the candidate walk's visits. The outcome-level doors keep
  /// outcomes alone, so only the walk's execution stays resident.
  bool KeepExecs = false;
  size_t Combos = 1;

  template <typename FnT> bool forEachBase(EngineStats *, FnT &&Fn) const {
    BaseT B = buildTargetBase(Specs, KeepExecs);
    if (SV)
      B.Allow = buildTargetStaticAllow(*SV, B);
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
    return TargetJustifier(B, Prune, FirstWriter, Visit, St).run();
  }
};

/// Counts the leaf \p B into every column of \p Into and keeps it as the
/// witness of \p O for each column that has none yet and whose backend
/// admits it. The leaf's coherence, from-reads and the relations derived
/// from them are built once, over the walk's execution, and shared by
/// every column. The shared axioms read no fence, so one evaluation
/// answers them for every column: atomicity for all six backends,
/// SC-per-location for all but ImmLite (whose COHERENCE axiom stands in
/// for it). Each column then checks only its final axiom, with its
/// statics.
void accumulate(TargetWalkResult &Into, const TargetCore &Core,
                TargetBase &B, const Outcome &O) {
  Into.Cols.resize(B.Cols.size());
  bool Open = false;
  for (TargetEnumerationResult &R : Into.Cols) {
    ++R.CandidatesConsidered;
    Open = Open || !R.Allowed.count(O);
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

void mergeItem(TargetWalkResult &Into, TargetWalkResult &Item) {
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
  return walkCore(JsCore(P, /*Prune=*/nullptr), nullptr, Visit);
}

bool ExecutionEngine::forEachAdmittedCandidate(
    const Program &P, const JsModel &M,
    const std::function<bool(const CandidateExecution &, const Outcome &)>
        &Visit) const {
  checkCapacity(P);
  EngineStats Local;
  bool Completed = walkCore(JsCore(P, Cfg.Prune ? &M : nullptr), &Local, Visit);
  Stats = Local;
  return Completed;
}

EnumerationResult ExecutionEngine::enumerate(const Program &P,
                                             const JsModel &M) const {
  checkCapacity(P);
  EngineStats Local;
  EnumerationResult R = enumerateCore(JsCore(P, Cfg.Prune ? &M : nullptr), M,
                                      effectiveThreads(), Local);
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
  // The fast path sits after the capacity gate (too-large programs keep
  // their typed rejection) and before solver/tier selection (no solver
  // runs on a statically-DRF program). When the DRF certificate does not
  // hold, the same analysis prunes the full walk below.
  if (SV) {
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
    return enumerateOutcomes(
        P, JsModel(M.spec(), SolverConfig::propagate()), SV);
  }
  const char *Tier = selectTier("js", Events, Kind);
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  // Equivalence-aware enumeration: rf sleep-set keys inside the justifier.
  const ModelSpec *RedP = Cfg.Reduction ? &M.spec() : nullptr;
  const JsModel *Prune = Cfg.Prune ? &M : nullptr;
  EngineStats Local;
  OutcomeSummary S = summarize(enumerateCore(JsCore(P, Prune, RedP, SV), M,
                                             effectiveThreads(), Local));
  Stats = Local;
  finishOutcomes({&S, 1}, "js", Tier, Kind, SV, Local);
  return S;
}

ScDrfReport ExecutionEngine::scDrf(const Program &P, const JsModel &M) const {
  checkCapacity(P);
  EngineStats Local;
  ScDrfReport Report;
  walkCore(JsCore(P, Cfg.Prune ? &M : nullptr), &Local,
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

namespace {

/// The target walk behind every target door: one rf × co walk over
/// \p Specs' compiled forms, one summary per column. Sets \p E.Stats to
/// the walk's effort, which every column shares.
std::vector<OutcomeSummary>
targetOutcomes(const ExecutionEngine &E,
               const std::vector<TargetColumnSpec> &Specs,
               const analysis::StaticValues *Source) {
  const EngineConfig &Cfg = E.config();
  unsigned Events = 0;
  for (const TargetColumnSpec &C : Specs) {
    checkCapacity(*C.CT);
    Events = std::max(Events, targetEventBound(*C.CT));
  }
  SolverKind Kind = defaultSolverKind();
  const analysis::StaticValues *SV = Cfg.StaticFastPath ? Source : nullptr;
  std::vector<OutcomeSummary> Out;
  if (SV) {
    for (const TargetColumnSpec &C : Specs)
      if (SV->C.Accesses.size() != C.CT->Sources.size())
        throw std::invalid_argument(
            "static analysis of a different program than the compiled "
            "form's source");
    if (SV->C.StaticallyDrf) {
      for (const TargetColumnSpec &C : Specs)
        Out.push_back(*tryStaticFastPath(*C.CT, SV->C, "target",
                                         targetEventBound(*C.CT), Kind));
      E.Stats = EngineStats();
      return Out;
    }
  }
  const char *Tier = selectTier("target", Events, Kind);
  obs::PhaseTimer Phase("engine.phase.enumerate_us");
  EngineStats Local;
  TargetCore Core{Specs, Cfg.Prune, SV};
  TargetWalkResult R = enumerateCore(Core, Core, E.effectiveThreads(), Local);
  R.Cols.resize(Specs.size());
  for (TargetEnumerationResult &C : R.Cols)
    Out.push_back(summarize(std::move(C)));
  E.Stats = Local;
  finishOutcomes(Out, "target", Tier, Kind, SV, Local);
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
  TargetWalkResult R = enumerateCore(Core, Core, effectiveThreads(), Local);
  Stats = Local;
  R.Cols.resize(1);
  return std::move(R.Cols[0]);
}

OutcomeSummary
ExecutionEngine::enumerateOutcomes(const CompiledTarget &CT,
                                   const TargetModel &M,
                                   const analysis::StaticValues *Source) const {
  return targetOutcomes(*this, {{&CT, &M}}, Source)[0];
}

std::vector<OutcomeSummary>
ExecutionEngine::enumerateOutcomes(const std::vector<CompiledTarget> &CTs,
                                   const analysis::StaticValues *Source) const {
  std::vector<TargetColumnSpec> Specs;
  for (const CompiledTarget &CT : CTs)
    Specs.push_back(
        {&CT, &TargetModel::all()[static_cast<size_t>(CT.Arch)]});
  if (Specs.empty())
    return {};
  return targetOutcomes(*this, Specs, Source);
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
