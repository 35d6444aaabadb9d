//===- tests/TestUtil.h - Shared test fixtures --------------------------===//
///
/// \file
/// Test-suite convenience wrapper around the paper-figure builders that
/// live in the library (paper/Figures.h), plus the shared random
/// small-program generator used by the reduction and static-analysis
/// randomized sweeps, the brute uni-size reference the engine's uni-js
/// column is checked against, the reference the target statics
/// builder is checked against, and the map-and-all-pairs value analysis
/// the flat one is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TESTS_TESTUTIL_H
#define JSMM_TESTS_TESTUTIL_H

#include "analysis/AnalysisDetail.h"
#include "paper/Figures.h"
#include "targets/TargetModels.h"
#include "targets/UniProgram.h"

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace jsmm {
namespace testutil {
using namespace jsmm::paper;

/// The set over a universe of \p N elements (N <= 64) holding the set bits
/// of \p Word: tests spell small event sets as masks.
inline BitSet wordSet(unsigned N, uint64_t Word) {
  BitSet S(N);
  for (unsigned I = 0; I < N; ++I)
    if ((Word >> I) & 1)
      bits::set(S, I);
  return S;
}

/// One random small program: 2-3 threads, 1-3 statements each, u8/u32
/// accesses over one 8-byte buffer, values 0-2, occasional SeqCst and
/// exchange statements, occasional copied bodies (to exercise twins) and
/// conditional loads. Deterministic in the caller's seeded \p Rng.
inline Program randomSmallProgram(std::mt19937 &Rng) {
  auto Dist = [&](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  struct GInstr {
    int Kind; // 0 store, 1 load, 2 exchange, 3 conditional load
    Acc A;
    uint64_t Val;
  };
  int NumThreads = Dist(2, 3);
  std::vector<std::vector<GInstr>> Bodies(NumThreads);
  for (int T = 0; T < NumThreads; ++T) {
    if (T > 0 && Dist(0, 3) == 0) {
      Bodies[T] = Bodies[0]; // identical twin of thread 0
      continue;
    }
    int N = Dist(1, 3);
    for (int I = 0; I < N; ++I) {
      GInstr G;
      int K = Dist(0, 9);
      G.Kind = K < 4 ? 0 : K < 8 ? 1 : K == 8 ? 2 : 3;
      bool Wide = Dist(0, 1) == 1;
      G.A = Wide ? Acc::u32(4u * Dist(0, 1)) : Acc::u8(Dist(0, 7));
      if (Dist(0, 3) == 0)
        G.A = G.A.sc();
      G.Val = static_cast<uint64_t>(Dist(0, 2));
      Bodies[T].push_back(G);
    }
  }
  Program P(8);
  for (auto &Body : Bodies) {
    ThreadBuilder T = P.thread();
    std::optional<Reg> FirstLoad;
    for (const GInstr &G : Body) {
      switch (G.Kind) {
      case 0:
        T.store(G.A, G.Val);
        break;
      case 1: {
        Reg R = T.load(G.A);
        if (!FirstLoad)
          FirstLoad = R;
        break;
      }
      case 2: {
        Reg R = T.exchange(G.A, G.Val);
        if (!FirstLoad)
          FirstLoad = R;
        break;
      }
      case 3:
        if (FirstLoad) {
          Acc A = G.A;
          T.ifEq(*FirstLoad, G.Val,
                 [&](ThreadBuilder &B) { B.load(A); });
        } else {
          FirstLoad = T.load(G.A);
        }
        break;
      }
    }
  }
  return P;
}

namespace detail {

/// Justifies the reads of \p X from index \p ReadIdx of \p Reads on, one
/// writer per read (every other write of the read's location), and records
/// each complete justification's outcome with its verdict into \p Verdicts.
inline void bruteUniJustify(UniExecution &X, const std::vector<EventId> &Reads,
                            size_t ReadIdx,
                            const std::map<EventId, unsigned> &RegOfEvent,
                            std::map<Outcome, bool> &Verdicts) {
  if (ReadIdx == Reads.size()) {
    Outcome O;
    for (const auto &[Id, Reg] : RegOfEvent)
      O.add(X.Events[Id].Thread, Reg, X.Events[Id].ReadVal);
    auto [It, Inserted] = Verdicts.try_emplace(O, false);
    if (Inserted || !It->second)
      It->second = isUniValidForSomeTot(X);
    return;
  }
  EventId R = Reads[ReadIdx];
  for (const UniEvent &W : X.Events) {
    if (!W.isWrite() || W.Id == R || W.Loc != X.Events[R].Loc)
      continue;
    X.Rf.set(W.Id, R);
    X.Events[R].ReadVal = W.WriteVal;
    bruteUniJustify(X, Reads, ReadIdx + 1, RegOfEvent, Verdicts);
    X.Rf.clear(W.Id, R);
  }
}

} // namespace detail

/// The allowed outcomes of \p P under the uni-size model (Fig. 12), sorted,
/// by generate-then-filter: every well-formed execution (an init write per
/// location, the instructions in order, one writer per read) is judged by
/// isUniValidForSomeTot, which builds hb from scratch. Independent of the
/// engine's walk, and exponential in the reads: an oracle for small and
/// few-read programs.
inline std::vector<Outcome> bruteUniAllowedOutcomes(const UniProgram &P) {
  std::vector<UniEvent> Events;
  for (unsigned L = 0; L < P.numLocs(); ++L)
    Events.push_back(makeUniInit(static_cast<EventId>(Events.size()), L));
  std::vector<std::vector<EventId>> ThreadEvents(P.numThreads());
  std::map<EventId, unsigned> RegOfEvent;
  for (unsigned T = 0; T < P.numThreads(); ++T)
    for (const UniInstr &I : P.threadBody(T)) {
      EventId Id = static_cast<EventId>(Events.size());
      int Th = static_cast<int>(T);
      switch (I.K) {
      case UniInstr::Kind::Load:
        Events.push_back(makeUniRead(Id, Th, I.Ord, I.Loc, 0));
        RegOfEvent[Id] = I.Dst;
        break;
      case UniInstr::Kind::Store:
        Events.push_back(makeUniWrite(Id, Th, I.Ord, I.Loc, I.Value));
        break;
      case UniInstr::Kind::Rmw:
        Events.push_back(makeUniRMW(Id, Th, I.Loc, 0, I.Value));
        RegOfEvent[Id] = I.Dst;
        break;
      }
      ThreadEvents[T].push_back(Id);
    }
  UniExecution X(std::move(Events));
  for (const std::vector<EventId> &Seq : ThreadEvents)
    for (size_t I = 0; I < Seq.size(); ++I)
      for (size_t J = I + 1; J < Seq.size(); ++J)
        X.Sb.set(Seq[I], Seq[J]);
  std::vector<EventId> Reads;
  for (const UniEvent &E : X.Events)
    if (E.isRead())
      Reads.push_back(E.Id);
  std::map<Outcome, bool> Verdicts;
  detail::bruteUniJustify(X, Reads, 0, RegOfEvent, Verdicts);
  std::vector<Outcome> Out;
  for (const auto &[O, Allowed] : Verdicts)
    if (Allowed)
      Out.push_back(O);
  return Out;
}

namespace detail {

/// \p R renumbered through \p ViewOf (event id -> view id, or -1 for an
/// event outside the view) over a universe of \p N.
inline Relation projectRelation(const Relation &R,
                                const std::vector<int> &ViewOf, unsigned N) {
  Relation Out(N);
  R.forEachPair([&](unsigned A, unsigned B) {
    if (ViewOf[A] >= 0 && ViewOf[B] >= 0)
      Out.set(static_cast<unsigned>(ViewOf[A]),
              static_cast<unsigned>(ViewOf[B]));
  });
  return Out;
}

/// The ids of \p X's access view, in id order: its accesses, except the
/// init write of a location no read touches.
inline std::vector<EventId> accessIds(const TargetExecution &X) {
  std::vector<bool> Read(X.CoPerLoc.size(), false);
  for (const TargetEvent &E : X.Events)
    if (E.isRead())
      Read[E.Loc] = true;
  std::vector<EventId> Ids;
  for (const TargetEvent &E : X.Events)
    if (E.isAccess() && (!E.IsInit || Read[E.Loc]))
      Ids.push_back(E.Id);
  return Ids;
}

/// \p X's event id -> access-view id, or -1 outside the view.
inline std::vector<int> viewNumbering(const TargetExecution &X) {
  std::vector<int> ViewOf(X.numEvents(), -1);
  std::vector<EventId> Ids = accessIds(X);
  for (unsigned K = 0; K < Ids.size(); ++K)
    ViewOf[Ids[K]] = static_cast<int>(K);
  return ViewOf;
}

/// The events of \p X that satisfy \p Pred.
template <typename PredT>
BitSet eventsWhere(const TargetExecution &X, PredT Pred) {
  BitSet Mask = Relation::emptySet(X.numEvents());
  for (const TargetEvent &E : X.Events)
    if (Pred(E))
      bits::set(Mask, E.Id);
  return Mask;
}

/// po ; [F] ; po of \p X with endpoint classes \p Pred and \p Succ.
inline Relation fenceEdges(const TargetExecution &X, TFence F,
                           const BitSet &Pred, const BitSet &Succ) {
  BitSet Fence = eventsWhere(X, [&](const TargetEvent &E) {
    return E.Kind == TKind::Fence && E.Fence == F;
  });
  return X.Po.restricted(Pred, Fence).compose(X.Po.restricted(Fence, Succ));
}

} // namespace detail

/// \p X's access view, renumbered from 0, with po, rf and the coherence
/// orders restricted to it.
inline TargetExecution referenceAccessView(const TargetExecution &X) {
  std::vector<int> ViewOf = detail::viewNumbering(X);
  std::vector<TargetEvent> Events;
  for (EventId Id : detail::accessIds(X)) {
    Events.push_back(X.Events[Id]);
    Events.back().Id = static_cast<EventId>(ViewOf[Id]);
  }
  unsigned N = static_cast<unsigned>(Events.size());
  TargetExecution V(std::move(Events),
                    static_cast<unsigned>(X.CoPerLoc.size()));
  V.Po = detail::projectRelation(X.Po, ViewOf, N);
  V.Rf = detail::projectRelation(X.Rf, ViewOf, N);
  for (size_t L = 0; L < X.CoPerLoc.size(); ++L)
    for (EventId W : X.CoPerLoc[L])
      if (ViewOf[W] >= 0)
        V.CoPerLoc[L].push_back(static_cast<EventId>(ViewOf[W]));
  return V;
}

/// The statics of \p Arch over \p X's access view, built the way the
/// walk built them before targetStatics read a form's events: in relation
/// algebra over all of \p X's events (fences and unread inits included),
/// then projected onto the view. Independent of targetStatics: the
/// reference it is checked against.
inline TargetStatics referenceViewStatics(const TargetExecution &X,
                                          TargetArch Arch) {
  unsigned N = X.numEvents();
  auto Where = [&](auto Pred) { return detail::eventsWhere(X, Pred); };
  BitSet Reads = Where([](const TargetEvent &E) { return E.isRead(); });
  BitSet Writes = Where([](const TargetEvent &E) { return E.isWrite(); });
  BitSet OnlyR =
      Where([](const TargetEvent &E) { return E.Kind == TKind::Read; });
  BitSet OnlyW =
      Where([](const TargetEvent &E) { return E.Kind == TKind::Write; });
  BitSet Acq =
      Where([](const TargetEvent &E) { return E.Acq && E.isRead(); });
  BitSet RelW =
      Where([](const TargetEvent &E) { return E.Rel && E.isWrite(); });
  BitSet Sc =
      Where([](const TargetEvent &E) { return E.Sc && E.isAccess(); });
  BitSet Access = Reads | Writes;
  auto AcqRel = [&] {
    Relation Out = X.Po.restricted(Acq, Access);
    Out.unionWith(X.Po.restricted(Access, RelW));
    Out.unionWith(X.Po.restricted(RelW, Acq));
    return Out;
  };
  using detail::fenceEdges;
  TargetStatics S;
  S.Arch = Arch;
  switch (Arch) {
  case TargetArch::X86:
    S.Ppo = X.Po.restricted(Access, Access)
                .subtracted(Relation::product(OnlyW, OnlyR, N));
    S.Ppo.unionWith(fenceEdges(X, TFence::MFence, Access, Access));
    break;
  case TargetArch::ArmV8:
    S.Ppo = AcqRel();
    break;
  case TargetArch::RiscV:
    S.Ppo = X.poLoc().restricted(Access, Writes);
    S.Ppo.unionWith(fenceEdges(X, TFence::FenceRWRW, Access, Access));
    S.Ppo.unionWith(fenceEdges(X, TFence::FenceRWW, Access, Writes));
    S.Ppo.unionWith(fenceEdges(X, TFence::FenceRRW, Reads, Access));
    S.Ppo.unionWith(AcqRel());
    break;
  case TargetArch::Power:
  case TargetArch::ArmV7: {
    bool Power = Arch == TargetArch::Power;
    S.Ffence = fenceEdges(X, Power ? TFence::Sync : TFence::DmbV7, Access,
                          Access);
    if (Power && bits::any(Where([](const TargetEvent &E) {
          return E.Fence == TFence::LwSync;
        })))
      S.Lw = fenceEdges(X, TFence::LwSync, Access, Access)
                 .subtracted(Relation::product(OnlyW, OnlyR, N));
    S.Ppo = fenceEdges(X, TFence::CtrlIsync, Reads, Access);
    break;
  }
  case TargetArch::ImmLite:
    S.SameLoc = Relation(N);
    for (const TargetEvent &A : X.Events)
      for (const TargetEvent &B : X.Events)
        if (A.isAccess() && B.isAccess() && A.Id != B.Id && A.Loc == B.Loc)
          S.SameLoc.set(A.Id, B.Id);
    break;
  }
  std::vector<int> ViewOf = detail::viewNumbering(X);
  unsigned V = static_cast<unsigned>(detail::accessIds(X).size());
  for (Relation *R : {&S.Ppo, &S.Ffence, &S.Lw, &S.SameLoc})
    if (R->size())
      *R = detail::projectRelation(*R, ViewOf, V);
  S.Writes = S.Sc = Relation::emptySet(V);
  for (EventId Id = 0; Id < N; ++Id)
    if (ViewOf[Id] >= 0) {
      if (bits::test(Writes, Id))
        bits::set(S.Writes, static_cast<unsigned>(ViewOf[Id]));
      if (bits::test(Sc, Id))
        bits::set(S.Sc, static_cast<unsigned>(ViewOf[Id]));
    }
  return S;
}

//===--------------------------------------------------------------------===//
// Reference value analysis
//===--------------------------------------------------------------------===//

/// Every field analysis::analyzeValues computes, with the byte facts in a
/// (block, byte) map.
struct ReferenceAnalysis {
  analysis::StaticClassification C;
  std::map<std::pair<unsigned, unsigned>, analysis::ByteFacts> Bytes;
  std::vector<analysis::ReadMayRf> Reads;
  std::map<std::pair<unsigned, unsigned>, uint64_t> RegConstants;
  uint64_t MayRfExcluded = 0;
  ThreadSymmetry Symmetry;
};

namespace detail {

using ByteKey = std::pair<unsigned, unsigned>; ///< (block, absolute byte)

/// Per absolute byte: covering writers and whether some access reads it.
struct ByteInfo {
  unsigned Writers = 0;
  bool Read = false;
};

/// The footprint classification over a (block, byte) map, with the
/// may-race relation tested over all access pairs.
inline void referenceClassify(const Program &P,
                              const std::vector<analysis::AccessRecord> &Accesses,
                              analysis::StaticClassification &Out,
                              std::map<ByteKey, ByteInfo> &Bytes) {
  using analysis::detail::accessText;
  using analysis::detail::initByte;
  for (const analysis::AccessRecord &R : Accesses) {
    for (unsigned K = 0; K < R.Access.Width; ++K) {
      ByteInfo &Info = Bytes[{R.Access.Block, R.Access.Offset + K}];
      if (R.isWrite())
        ++Info.Writers;
      if (R.isRead())
        Info.Read = true;
    }
  }
  for (unsigned A = 0; A < Accesses.size(); ++A) {
    const analysis::AccessRecord &X = Accesses[A];
    for (unsigned B = A + 1; B < Accesses.size(); ++B) {
      const analysis::AccessRecord &Y = Accesses[B];
      if (X.Thread == Y.Thread || X.Access.Block != Y.Access.Block)
        continue;
      if (!X.isWrite() && !Y.isWrite())
        continue;
      unsigned Begin = std::max(X.Access.Offset, Y.Access.Offset);
      unsigned End = std::min(X.Access.Offset + X.Access.Width,
                              Y.Access.Offset + Y.Access.Width);
      if (Begin >= End)
        continue;
      bool BothScSameRange =
          X.Access.Ord == Mode::SeqCst && Y.Access.Ord == Mode::SeqCst &&
          X.Access.Offset == Y.Access.Offset &&
          X.Access.Width == Y.Access.Width;
      if (BothScSameRange)
        continue;
      Out.MayRaces.push_back({A, B});
    }
  }
  Out.StaticallyDrf = Out.MayRaces.empty();

  for (const analysis::AccessRecord &R : Accesses) {
    auto ByteAt = [&](unsigned K) -> const ByteInfo & {
      return Bytes.at({R.Access.Block, R.Access.Offset + K});
    };
    if (R.K == Instr::Kind::Store) {
      bool AnyRead = false;
      for (unsigned K = 0; K < R.Access.Width && !AnyRead; ++K)
        AnyRead = ByteAt(K).Read;
      if (!AnyRead)
        Out.Lints.push_back(
            {analysis::LintKind::DeadStore, static_cast<int>(R.Thread),
             static_cast<int>(R.PreIdx),
             accessText(R) + ": stored bytes are never read by any load; "
                             "the store cannot affect any outcome"});
    }
    if (R.isRead()) {
      bool Covered = false;
      unsigned SelfWrites = R.isWrite() ? 1u : 0u;
      for (unsigned K = 0; K < R.Access.Width && !Covered; ++K)
        Covered = ByteAt(K).Writers > SelfWrites ||
                  initByte(P, R.Access.Block, R.Access.Offset + K) != 0;
      if (!Covered)
        Out.Lints.push_back(
            {analysis::LintKind::UncoveredRead, static_cast<int>(R.Thread),
             static_cast<int>(R.PreIdx),
             accessText(R) + ": no write or init covers these bytes; the "
                             "read always observes 0"});
    }
  }
}

/// The may-rf sets, refined possible sets and constant verdicts of the
/// reads of \p Out.C.Accesses, by whole-table scans per read byte.
inline void referenceMayRf(ReferenceAnalysis &Out, const Program &P) {
  const std::vector<analysis::AccessRecord> &A = Out.C.Accesses;
  auto Covers = [](const analysis::AccessRecord &W, unsigned Block,
                   unsigned L) {
    return W.Access.Block == Block && W.Access.Offset <= L &&
           L < W.Access.Offset + W.Access.Width;
  };
  for (unsigned RIdx = 0; RIdx < A.size(); ++RIdx) {
    const analysis::AccessRecord &R = A[RIdx];
    if (!R.isRead())
      continue;
    analysis::ReadMayRf MR;
    MR.AccessIdx = RIdx;
    bool AllSingleton = true;
    for (unsigned K = 0; K < R.Access.Width; ++K) {
      unsigned L = R.Access.Offset + K;
      auto Shadows = [&](unsigned WIdx, unsigned CIdx) {
        const analysis::AccessRecord &C = A[CIdx];
        return CIdx != WIdx && CIdx != RIdx && C.isWrite() &&
               C.Thread == R.Thread && C.Depth == 0 &&
               Covers(C, R.Access.Block, L) && C.PreIdx < R.PreIdx;
      };
      bool InitShadowed = false;
      for (unsigned CIdx = 0; CIdx < A.size() && !InitShadowed; ++CIdx)
        InitShadowed = Shadows(static_cast<unsigned>(-1), CIdx);
      analysis::MayRfByte MB;
      MB.Init = !InitShadowed;
      if (InitShadowed)
        ++Out.MayRfExcluded;
      for (unsigned WIdx = 0; WIdx < A.size(); ++WIdx) {
        const analysis::AccessRecord &W = A[WIdx];
        if (WIdx == RIdx || !W.isWrite() || !Covers(W, R.Access.Block, L))
          continue;
        bool Excluded = W.Thread == R.Thread && W.PreIdx > R.PreIdx;
        if (!Excluded && W.Thread == R.Thread)
          for (unsigned CIdx = 0; CIdx < A.size() && !Excluded; ++CIdx)
            Excluded = Shadows(WIdx, CIdx) && W.PreIdx < A[CIdx].PreIdx;
        if (Excluded)
          ++Out.MayRfExcluded;
        else
          MB.Writers.push_back(WIdx);
      }
      std::set<uint8_t> Poss;
      if (MB.Init)
        Poss.insert(analysis::detail::initByte(P, R.Access.Block, L));
      for (unsigned WIdx : MB.Writers)
        Poss.insert(analysis::detail::byteOf(A[WIdx].Value,
                                             L - A[WIdx].Access.Offset));
      AllSingleton = AllSingleton && Poss.size() == 1;
      MR.Bytes.push_back(std::move(MB));
      MR.Possible.push_back(std::move(Poss));
    }
    if (AllSingleton) {
      MR.Constant = true;
      for (unsigned K = 0; K < MR.Possible.size(); ++K)
        MR.ConstantValue |= static_cast<uint64_t>(*MR.Possible[K].begin())
                            << (8 * K);
    }
    Out.Reads.push_back(std::move(MR));
  }
}

/// ConstantRead (unless the read is already uncovered, found by a scan of
/// every lint) and the value-aware DeadBranch lints.
inline void
referenceLintValues(ReferenceAnalysis &Out,
                    const std::vector<analysis::detail::BranchRecord> &Branches) {
  using analysis::LintDiag;
  using analysis::LintKind;
  using analysis::ReadMayRf;
  auto HasLint = [&](LintKind K, const analysis::AccessRecord &R) {
    for (const LintDiag &D : Out.C.Lints)
      if (D.Kind == K && D.Thread == static_cast<int>(R.Thread) &&
          D.PreIdx == static_cast<int>(R.PreIdx))
        return true;
    return false;
  };
  for (const ReadMayRf &MR : Out.Reads) {
    if (!MR.Constant)
      continue;
    const analysis::AccessRecord &R = Out.C.Accesses[MR.AccessIdx];
    if (HasLint(LintKind::UncoveredRead, R))
      continue;
    Out.C.Lints.push_back(
        {LintKind::ConstantRead, static_cast<int>(R.Thread),
         static_cast<int>(R.PreIdx),
         analysis::detail::accessText(R) + ": every justification yields " +
             std::to_string(MR.ConstantValue) +
             "; the read cannot distinguish executions"});
  }
  std::map<std::pair<unsigned, unsigned>, std::vector<const ReadMayRf *>>
      AssignedBy;
  for (const ReadMayRf &MR : Out.Reads) {
    const analysis::AccessRecord &R = Out.C.Accesses[MR.AccessIdx];
    AssignedBy[{R.Thread, R.Dst}].push_back(&MR);
  }
  for (const analysis::detail::BranchRecord &Br : Branches) {
    auto It = AssignedBy.find({Br.Thread, Br.CondReg});
    if (It == AssignedBy.end())
      continue;
    bool CanEqual = false, MustEqual = true;
    for (const ReadMayRf *MR : It->second) {
      const Acc &A = Out.C.Accesses[MR->AccessIdx].Access;
      bool Fits = A.Width >= 8 || (Br.Value >> (8 * A.Width)) == 0;
      bool Can = Fits, Must = Fits;
      for (unsigned K = 0; K < A.Width && (Can || Must); ++K) {
        const std::set<uint8_t> &Possible = MR->Possible[K];
        bool HasByte = Fits && Possible.count(analysis::detail::byteOf(
                                   Br.Value, K)) != 0;
        Can = Can && HasByte;
        Must = Must && HasByte && Possible.size() == 1;
      }
      CanEqual = CanEqual || Can;
      MustEqual = MustEqual && Must;
    }
    if (Br.Equal ? !CanEqual : MustEqual)
      Out.C.Lints.push_back(
          {LintKind::DeadBranch, static_cast<int>(Br.Thread),
           static_cast<int>(Br.PreIdx),
           "condition r" + std::to_string(Br.CondReg) +
               (Br.Equal ? " == " : " != ") + std::to_string(Br.Value) +
               " can never hold; the branch body is dead"});
  }
}

/// Exact statement-by-statement body equality.
inline bool referenceBodiesEqual(const std::vector<Instr> &A,
                                 const std::vector<Instr> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    const Instr &X = A[I], &Y = B[I];
    const Acc &Ax = X.Access, &Ay = Y.Access;
    if (X.K != Y.K || X.Dst != Y.Dst || X.Value != Y.Value ||
        X.CondReg != Y.CondReg || Ax.Block != Ay.Block ||
        Ax.Offset != Ay.Offset || Ax.Width != Ay.Width || Ax.Ord != Ay.Ord ||
        Ax.TearFree != Ay.TearFree || !referenceBodiesEqual(X.Body, Y.Body))
      return false;
  }
  return true;
}

/// Body equality up to an injective byte-offset renaming, accumulated
/// into \p Fwd and its inverse \p Bwd.
inline bool referenceRenamedEqual(const std::vector<Instr> &A,
                                  const std::vector<Instr> &B,
                                  std::map<ByteKey, unsigned> &Fwd,
                                  std::map<ByteKey, unsigned> &Bwd) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    const Instr &X = A[I], &Y = B[I];
    if (X.K != Y.K || X.Dst != Y.Dst || X.Value != Y.Value ||
        X.CondReg != Y.CondReg)
      return false;
    const Acc &Ax = X.Access, &Ay = Y.Access;
    if (Ax.Block != Ay.Block || Ax.Width != Ay.Width || Ax.Ord != Ay.Ord ||
        Ax.TearFree != Ay.TearFree)
      return false;
    if (X.K != Instr::Kind::IfEq && X.K != Instr::Kind::IfNe) {
      for (unsigned K = 0; K < Ax.Width; ++K) {
        ByteKey From{Ax.Block, Ax.Offset + K};
        unsigned To = Ay.Offset + K;
        auto [FI, FNew] = Fwd.try_emplace(From, To);
        if (!FNew && FI->second != To)
          return false;
        auto [BI, BNew] = Bwd.try_emplace(ByteKey{Ax.Block, To}, From.second);
        if (!BNew && BI->second != From.second)
          return false;
      }
    }
    if (!referenceRenamedEqual(X.Body, Y.Body, Fwd, Bwd))
      return false;
  }
  return true;
}

/// Per (block, byte), the one thread touching it, or -2 for several.
inline void referenceTouch(const std::vector<Instr> &Body, int T,
                           std::map<ByteKey, int> &Owner) {
  for (const Instr &I : Body) {
    if (I.K == Instr::Kind::Load || I.K == Instr::Kind::Store ||
        I.K == Instr::Kind::Rmw)
      for (unsigned K = 0; K < I.Access.Width; ++K) {
        auto [It, New] =
            Owner.try_emplace({I.Access.Block, I.Access.Offset + K}, T);
        if (!New && It->second != T)
          It->second = -2;
      }
    referenceTouch(I.Body, T, Owner);
  }
}

} // namespace detail

/// The thread-symmetry classes of \p P, comparing each thread with the
/// representative of every earlier class in turn.
inline ThreadSymmetry referenceThreadSymmetry(const Program &P) {
  std::map<detail::ByteKey, int> Owner;
  for (unsigned T = 0; T < P.numThreads(); ++T)
    detail::referenceTouch(P.threadBody(T), static_cast<int>(T), Owner);
  auto PrivateTo = [&](detail::ByteKey B, unsigned T) {
    auto It = Owner.find(B);
    return It != Owner.end() && It->second == static_cast<int>(T);
  };
  bool ZeroInit = !P.hasNonZeroInit();
  std::vector<std::vector<unsigned>> Groups;
  std::vector<char> GroupExact;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    bool Placed = false;
    for (size_t G = 0; G < Groups.size() && !Placed; ++G) {
      unsigned Rep = Groups[G].front();
      const std::vector<Instr> &A = P.threadBody(Rep);
      const std::vector<Instr> &B = P.threadBody(T);
      bool Exact = detail::referenceBodiesEqual(A, B);
      bool Renamed = false;
      if (!Exact && ZeroInit) {
        std::map<detail::ByteKey, unsigned> Fwd, Bwd;
        Renamed = detail::referenceRenamedEqual(A, B, Fwd, Bwd);
        for (const auto &[From, To] : Fwd)
          if (Renamed && From.second != To)
            Renamed = PrivateTo(From, Rep) && PrivateTo({From.first, To}, T);
      }
      if (Exact || Renamed) {
        Groups[G].push_back(T);
        GroupExact[G] = GroupExact[G] && Exact;
        Placed = true;
      }
    }
    if (!Placed) {
      Groups.push_back({T});
      GroupExact.push_back(true);
    }
  }
  ThreadSymmetry S;
  for (size_t G = 0; G < Groups.size(); ++G)
    if (Groups[G].size() >= 2) {
      S.Classes.push_back(Groups[G]);
      S.Exact.push_back(GroupExact[G]);
    }
  return S;
}

/// analysis::analyzeValues over (block, byte) maps and all-pairs scans:
/// the reference the flat analysis is checked against.
inline ReferenceAnalysis referenceAnalyzeValues(const Program &P) {
  ReferenceAnalysis Out;
  std::vector<analysis::detail::BranchRecord> Branches;
  std::vector<const Instr *> InstrOf;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    unsigned PreIdx = 0;
    analysis::detail::flattenBody(P.threadBody(T), T, 0, PreIdx,
                                  Out.C.Accesses, Branches, InstrOf);
  }
  std::map<detail::ByteKey, detail::ByteInfo> Bytes;
  detail::referenceClassify(P, Out.C.Accesses, Out.C, Bytes);
  for (const auto &[Key, Info] : Bytes) {
    analysis::ByteFacts F;
    F.Class = Info.Writers == 0
                  ? analysis::ByteClass::ReadOnly
                  : (Info.Writers == 1 ? analysis::ByteClass::SingleWriter
                                       : analysis::ByteClass::MultiWriter);
    F.Init = analysis::detail::initByte(P, Key.first, Key.second);
    F.Writers = Info.Writers;
    F.Read = Info.Read;
    Out.Bytes.emplace(Key, F);
  }
  detail::referenceMayRf(Out, P);
  std::map<std::pair<unsigned, unsigned>, std::pair<bool, uint64_t>> Regs;
  for (const analysis::ReadMayRf &MR : Out.Reads) {
    const analysis::AccessRecord &R = Out.C.Accesses[MR.AccessIdx];
    auto [It, New] = Regs.emplace(std::make_pair(R.Thread, R.Dst),
                                  std::make_pair(MR.Constant,
                                                 MR.ConstantValue));
    if (!New)
      It->second.first = It->second.first && MR.Constant &&
                         It->second.second == MR.ConstantValue;
  }
  for (const auto &[Key, V] : Regs)
    if (V.first)
      Out.RegConstants.emplace(Key, V.second);
  detail::referenceLintValues(Out, Branches);
  Out.Symmetry = referenceThreadSymmetry(P);
  analysis::detail::lintDuplicateThreads(Out.Symmetry, Out.C);
  return Out;
}

} // namespace testutil
} // namespace jsmm

#endif // JSMM_TESTS_TESTUTIL_H
