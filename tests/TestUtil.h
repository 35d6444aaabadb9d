//===- tests/TestUtil.h - Shared test fixtures --------------------------===//
///
/// \file
/// Test-suite convenience wrapper around the paper-figure builders that
/// live in the library (paper/Figures.h), plus the shared random
/// small-program generator used by the reduction and static-analysis
/// randomized sweeps, the brute uni-size reference the engine's uni-js
/// column is checked against, and the reference the target statics
/// builder is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TESTS_TESTUTIL_H
#define JSMM_TESTS_TESTUTIL_H

#include "paper/Figures.h"
#include "targets/TargetModels.h"
#include "targets/UniProgram.h"

#include <map>
#include <optional>
#include <random>
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

} // namespace testutil
} // namespace jsmm

#endif // JSMM_TESTS_TESTUTIL_H
