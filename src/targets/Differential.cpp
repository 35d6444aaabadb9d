//===- targets/Differential.cpp -------------------------------------------===//

#include "targets/Differential.h"

#include "tools/LitmusParser.h"

#include <cstdio>
#include <cstdlib>

using namespace jsmm;

namespace {

Outcome outcomeOf(
    std::initializer_list<std::tuple<int, unsigned, uint64_t>> Regs) {
  Outcome O;
  for (const auto &[T, R, V] : Regs)
    O.add(T, R, V);
  return O;
}

/// Two-location two-thread shape builders over cells x = 0, y = 1.
UniProgram mp(Mode Data, Mode Flag, const char *Name) {
  UniProgram P(2);
  P.Name = Name;
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Data);
  P.store(T0, 1, 1, Flag);
  unsigned T1 = P.thread();
  P.load(T1, 1, Flag);
  P.load(T1, 0, Data);
  return P;
}

UniProgram sb(Mode M, const char *Name) {
  UniProgram P(2);
  P.Name = Name;
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, M);
  P.load(T0, 1, M);
  unsigned T1 = P.thread();
  P.store(T1, 1, 1, M);
  P.load(T1, 0, M);
  return P;
}

/// A corpus entry's litmus text, parsed. A corpus entry that stops parsing
/// (or leaves the uni-size fragment) is a hard error even under NDEBUG —
/// every differential test depends on it.
LitmusFile parsedFile(const char *Src) {
  std::string Error;
  std::optional<LitmusFile> File = parseLitmus(Src, &Error);
  if (!File) {
    std::fprintf(stderr, "differential corpus litmus text must parse: %s\n",
                 Error.c_str());
    std::abort();
  }
  return *File;
}

/// Parser-loaded entry: litmus text -> Program -> uni-size fragment.
DiffCase parsedCase(const char *Src, Outcome Weak) {
  LitmusFile File = parsedFile(Src);
  std::string Error;
  std::optional<UniProgram> Uni = uniFromProgram(File.P, &Error);
  if (!Uni) {
    std::fprintf(stderr,
                 "differential corpus entry '%s' must be uni-size "
                 "expressible: %s\n",
                 File.P.Name.c_str(), Error.c_str());
    std::abort();
  }
  DiffCase C;
  C.Name = File.P.Name;
  C.Uni = *Uni;
  C.Weak = Weak;
  C.Litmus = Src;
  return C;
}

const char *MpScFlagLitmus = R"(name mp-sc-flag-litmus
buffer 8
thread
  store u32 0 = 1
  store.sc u32 4 = 1
thread
  r0 = load.sc u32 4
  r1 = load u32 0
forbid 1:r0=1 1:r1=0
)";

const char *SbScLitmus = R"(name sb-sc-litmus
buffer 8
thread
  store.sc u32 0 = 1
  r0 = load.sc u32 4
thread
  store.sc u32 4 = 1
  r0 = load.sc u32 0
forbid 0:r0=0 1:r0=0
)";

} // namespace

std::vector<DiffCase> jsmm::differentialCorpus() {
  std::vector<DiffCase> Corpus;
  auto Add = [&](UniProgram P, Outcome Weak) {
    DiffCase C;
    C.Name = P.Name;
    C.Uni = std::move(P);
    C.Weak = Weak;
    Corpus.push_back(std::move(C));
  };

  Outcome MpWeak = outcomeOf({{1, 0, 1}, {1, 1, 0}});
  Add(mp(Mode::Unordered, Mode::Unordered, "mp-plain"), MpWeak);
  Add(mp(Mode::Unordered, Mode::SeqCst, "mp-sc-flag"), MpWeak);
  Add(mp(Mode::SeqCst, Mode::SeqCst, "mp-sc"), MpWeak);

  Outcome SbWeak = outcomeOf({{0, 0, 0}, {1, 0, 0}});
  Add(sb(Mode::Unordered, "sb-plain"), SbWeak);
  Add(sb(Mode::SeqCst, "sb-sc"), SbWeak);

  {
    UniProgram P(2);
    P.Name = "lb-plain";
    unsigned T0 = P.thread();
    P.load(T0, 0, Mode::Unordered);
    P.store(T0, 1, 1, Mode::Unordered);
    unsigned T1 = P.thread();
    P.load(T1, 1, Mode::Unordered);
    P.store(T1, 0, 1, Mode::Unordered);
    Add(std::move(P), outcomeOf({{0, 0, 1}, {1, 0, 1}}));
  }
  {
    UniProgram P(1);
    P.Name = "corr-plain";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::Unordered);
    unsigned T1 = P.thread();
    P.load(T1, 0, Mode::Unordered);
    P.load(T1, 0, Mode::Unordered);
    Add(std::move(P), outcomeOf({{1, 0, 1}, {1, 1, 0}}));
  }
  for (Mode M : {Mode::Unordered, Mode::SeqCst}) {
    UniProgram P(2);
    P.Name = M == Mode::SeqCst ? "iriw-sc" : "iriw-plain";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, M);
    unsigned T1 = P.thread();
    P.store(T1, 1, 1, M);
    unsigned T2 = P.thread();
    P.load(T2, 0, M);
    P.load(T2, 1, M);
    unsigned T3 = P.thread();
    P.load(T3, 1, M);
    P.load(T3, 0, M);
    Add(std::move(P),
        outcomeOf({{2, 0, 1}, {2, 1, 0}, {3, 0, 1}, {3, 1, 0}}));
  }
  {
    UniProgram P(2);
    P.Name = "wrc-plain";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::Unordered);
    unsigned T1 = P.thread();
    P.load(T1, 0, Mode::Unordered);
    P.store(T1, 1, 1, Mode::Unordered);
    unsigned T2 = P.thread();
    P.load(T2, 1, Mode::Unordered);
    P.load(T2, 0, Mode::Unordered);
    Add(std::move(P), outcomeOf({{1, 0, 1}, {2, 0, 1}, {2, 1, 0}}));
  }
  {
    // The Fig. 6 ARMv8 shape (§3.1): the designated outcome is forbidden
    // by the original JavaScript model yet allowed by the ARMv8 scheme —
    // the observable weakening that forced the paper's repair.
    UniProgram P(2);
    P.Name = "fig6-shape";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::SeqCst);
    P.load(T0, 1, Mode::SeqCst);
    unsigned T1 = P.thread();
    P.store(T1, 1, 1, Mode::SeqCst);
    P.store(T1, 1, 2, Mode::SeqCst);
    P.store(T1, 0, 2, Mode::Unordered);
    P.load(T1, 0, Mode::SeqCst);
    Add(std::move(P), outcomeOf({{0, 0, 1}, {1, 0, 1}}));
  }
  {
    // The Fig. 8 SC-DRF shape, unguarded.
    UniProgram P(1);
    P.Name = "fig8-shape";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::SeqCst);
    unsigned T1 = P.thread();
    P.store(T1, 0, 2, Mode::SeqCst);
    P.load(T1, 0, Mode::SeqCst);
    P.load(T1, 0, Mode::Unordered);
    Add(std::move(P), outcomeOf({{1, 0, 1}, {1, 1, 2}}));
  }
  {
    // Fig. 9 first shape flavour: SC writes, plain reads of the other cell.
    UniProgram P(2);
    P.Name = "fig9-shape1";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::SeqCst);
    P.load(T0, 1, Mode::Unordered);
    unsigned T1 = P.thread();
    P.store(T1, 1, 2, Mode::SeqCst);
    P.load(T1, 0, Mode::Unordered);
    Add(std::move(P), outcomeOf({{0, 0, 0}, {1, 0, 0}}));
  }
  {
    // Fig. 9 second shape flavour: unordered write before an SC read of
    // the same cell, SC write on the other thread.
    UniProgram P(2);
    P.Name = "fig9-shape2";
    unsigned T0 = P.thread();
    P.store(T0, 0, 1, Mode::Unordered);
    P.load(T0, 0, Mode::SeqCst);
    P.load(T0, 1, Mode::Unordered);
    unsigned T1 = P.thread();
    P.store(T1, 0, 2, Mode::SeqCst);
    P.store(T1, 1, 2, Mode::Unordered);
    Add(std::move(P), outcomeOf({{0, 0, 2}, {0, 1, 0}}));
  }
  {
    UniProgram P(1);
    P.Name = "xchg-race";
    unsigned T0 = P.thread();
    P.exchange(T0, 0, 1);
    unsigned T1 = P.thread();
    P.exchange(T1, 0, 2);
    Add(std::move(P), outcomeOf({{0, 0, 0}, {1, 0, 0}}));
  }

  Corpus.push_back(
      parsedCase(MpScFlagLitmus, outcomeOf({{1, 0, 1}, {1, 1, 0}})));
  Corpus.push_back(
      parsedCase(SbScLitmus, outcomeOf({{0, 0, 0}, {1, 0, 0}})));
  return Corpus;
}

std::vector<DiffCase> jsmm::largeDifferentialCorpus() {
  std::vector<DiffCase> Corpus;
  auto Add = [&](UniProgram P, Outcome Weak) {
    DiffCase C;
    C.Name = P.Name;
    C.Uni = std::move(P);
    C.Weak = Weak;
    Corpus.push_back(std::move(C));
  };

  // A classic SB core (2 threads, the only reads) padded with filler
  // threads that each write three private locations: the event count
  // scales with the filler count while the candidate space stays at the
  // SB core's four rf choices (every filler location has one writer).
  // Uni/target-tier events: (2 + 3K) init + 4 core + 3K filler = 6 + 6K.
  // The mixed (litmus) rendering has one Init event for its whole buffer,
  // so its bound is 5 + 3K — the K = 20 flavour crosses the 64-event
  // ceiling in every tier.
  auto WideSb = [&](unsigned Fillers, const char *Name) {
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
    return P;
  };
  Outcome SbWeak = outcomeOf({{0, 0, 0}, {1, 0, 0}});
  Add(WideSb(10, "sb-wide-66"), SbWeak);  // 66 uni events, 35 mixed
  Add(WideSb(20, "sb-wide-126"), SbWeak); // 126 uni events, 65 mixed

  {
    // A 9-thread IRIW chain: the classic two writers and two opposed
    // readers (the only reads — 16 rf combinations), plus filler writer
    // threads carrying every tier across the 64-event ceiling. Written as
    // litmus text over u8 cells so the mixed-size JavaScript columns see
    // single-byte reads (no byte-tearing blowup of the candidate space):
    // 64 instructions + 1 Init = 65 events mixed, 60 locations + 64
    // instructions = 124 events uni/target.
    std::string Src = "name iriw-chain-9t\nbuffer 64\n";
    unsigned NextOff = 2; // 0 = x, 1 = y; fillers from 2 up
    auto Filler = [&](unsigned Count) {
      std::string Out;
      for (unsigned I = 0; I < Count; ++I)
        Out += "  store u8 " + std::to_string(NextOff++) + " = 1\n";
      return Out;
    };
    Src += "thread\n  store u8 0 = 1\n" + Filler(9);
    Src += "thread\n  store u8 1 = 1\n" + Filler(9);
    Src += "thread\n  r0 = load u8 0\n  r1 = load u8 1\n";
    Src += "thread\n  r0 = load u8 1\n  r1 = load u8 0\n";
    for (unsigned T = 0; T < 5; ++T)
      Src += "thread\n" + Filler(8);
    Src += "allow 2:r0=1 2:r1=0 3:r0=1 3:r1=0\n";
    Corpus.push_back(parsedCase(
        Src.c_str(),
        outcomeOf({{2, 0, 1}, {2, 1, 0}, {3, 0, 1}, {3, 1, 0}})));
  }
  return Corpus;
}

Program DiffCase::program() const {
  return Litmus.empty() ? mixedFromUni(Uni) : parsedFile(Litmus.c_str()).P;
}
