//===- tests/TestUtil.h - Shared test fixtures --------------------------===//
///
/// \file
/// Test-suite convenience wrapper around the paper-figure builders that
/// live in the library (paper/Figures.h), plus the shared random
/// small-program generator used by the reduction and static-analysis
/// randomized sweeps, and the brute uni-size reference the engine's uni-js
/// column is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TESTS_TESTUTIL_H
#define JSMM_TESTS_TESTUTIL_H

#include "paper/Figures.h"
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

} // namespace testutil
} // namespace jsmm

#endif // JSMM_TESTS_TESTUTIL_H
