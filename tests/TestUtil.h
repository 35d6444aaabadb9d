//===- tests/TestUtil.h - Shared test fixtures --------------------------===//
///
/// \file
/// Test-suite convenience wrapper around the paper-figure builders that
/// live in the library (paper/Figures.h), plus the shared random
/// small-program generator used by the reduction and static-analysis
/// randomized sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TESTS_TESTUTIL_H
#define JSMM_TESTS_TESTUTIL_H

#include "paper/Figures.h"

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

} // namespace testutil
} // namespace jsmm

#endif // JSMM_TESTS_TESTUTIL_H
