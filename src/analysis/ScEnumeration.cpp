//===- analysis/ScEnumeration.cpp -----------------------------------------===//

#include "analysis/ScEnumeration.h"

#include "support/Str.h"

#include <map>
#include <set>
#include <string>

using namespace jsmm;
using namespace jsmm::analysis;

namespace {

/// Little-endian serialization helpers for the state memo.
void put32(std::string &Out, uint32_t V) {
  for (unsigned K = 0; K < 4; ++K)
    Out.push_back(static_cast<char>(V >> (8 * K)));
}
void put64(std::string &Out, uint64_t V) {
  for (unsigned K = 0; K < 8; ++K)
    Out.push_back(static_cast<char>(V >> (8 * K)));
}

using ByteKey = std::pair<unsigned, unsigned>; ///< (block, absolute byte)

/// Which single thread touches a byte, or Shared.
constexpr int Shared = -2;

struct JsWalk {
  explicit JsWalk(const Program &P) : P(P) {
    for (unsigned T = 0; T < P.numThreads(); ++T)
      footprint(P.threadBody(T), static_cast<int>(T));
    for (const auto &[Key, Owner] : Ownership) {
      (void)Owner;
      Touched.push_back(Key);
    }
  }

  /// One thread's control position: a stack of (body, ip) frames.
  struct Frame {
    const std::vector<Instr> *Body;
    size_t Ip;
  };

  struct State {
    std::vector<std::vector<Frame>> Stacks;
    /// Per thread, the assigned registers (absent = never assigned).
    std::vector<std::map<unsigned, uint64_t>> Regs;
    std::vector<std::vector<uint8_t>> Mem;
  };

  const Program &P;
  std::map<ByteKey, int> Ownership;
  std::vector<ByteKey> Touched; ///< sorted (map order) footprint bytes
  std::set<Outcome> Outcomes;
  std::set<std::string> Visited;
  uint64_t States = 0;

  void footprint(const std::vector<Instr> &Body, int Thread) {
    for (const Instr &I : Body) {
      switch (I.K) {
      case Instr::Kind::Load:
      case Instr::Kind::Store:
      case Instr::Kind::Rmw:
        for (unsigned K = 0; K < I.Access.Width; ++K) {
          auto [It, Inserted] = Ownership.emplace(
              ByteKey{I.Access.Block, I.Access.Offset + K}, Thread);
          if (!Inserted && It->second != Thread)
            It->second = Shared;
        }
        break;
      case Instr::Kind::IfEq:
      case Instr::Kind::IfNe:
        footprint(I.Body, Thread);
        break;
      }
    }
  }

  State initialState() const {
    State S;
    S.Stacks.resize(P.numThreads());
    S.Regs.resize(P.numThreads());
    for (unsigned T = 0; T < P.numThreads(); ++T)
      S.Stacks[T].push_back({&P.threadBody(T), 0});
    for (unsigned B = 0; B < P.bufferSizes().size(); ++B) {
      const std::vector<uint8_t> &Init = P.initBytes(B);
      S.Mem.push_back(Init.empty()
                          ? std::vector<uint8_t>(P.bufferSizes()[B], 0)
                          : Init);
    }
    return S;
  }

  /// Pops exhausted frames; \returns the thread's next statement, or null
  /// when it has run to completion.
  const Instr *next(State &S, unsigned T) const {
    std::vector<Frame> &Stack = S.Stacks[T];
    while (!Stack.empty() && Stack.back().Ip == Stack.back().Body->size())
      Stack.pop_back();
    if (Stack.empty())
      return nullptr;
    return &(*Stack.back().Body)[Stack.back().Ip];
  }

  /// True when executing \p I cannot be observed by any other thread: a
  /// register-only branch, or an access whose every byte is private to
  /// its thread. Invisible steps commute with all other threads' steps,
  /// so the scheduler never branches on them.
  bool invisible(const Instr &I) const {
    if (I.K == Instr::Kind::IfEq || I.K == Instr::Kind::IfNe)
      return true;
    for (unsigned K = 0; K < I.Access.Width; ++K)
      if (Ownership.at({I.Access.Block, I.Access.Offset + K}) == Shared)
        return false;
    return true;
  }

  uint64_t read(const State &S, const Acc &A) const {
    uint64_t V = 0;
    for (unsigned K = 0; K < A.Width; ++K)
      V |= static_cast<uint64_t>(S.Mem[A.Block][A.Offset + K]) << (8 * K);
    return V;
  }

  void write(State &S, const Acc &A, uint64_t Value) const {
    std::vector<uint8_t> Bytes = bytesOfValue(Value, A.Width);
    for (unsigned K = 0; K < A.Width; ++K)
      S.Mem[A.Block][A.Offset + K] = Bytes[K];
  }

  /// Executes the thread's next statement (the caller established there
  /// is one).
  void step(State &S, unsigned T) const {
    Frame &F = S.Stacks[T].back();
    const Instr &I = (*F.Body)[F.Ip++];
    switch (I.K) {
    case Instr::Kind::Load:
      S.Regs[T][I.Dst] = read(S, I.Access);
      break;
    case Instr::Kind::Store:
      write(S, I.Access, I.Value);
      break;
    case Instr::Kind::Rmw:
      S.Regs[T][I.Dst] = read(S, I.Access);
      write(S, I.Access, I.Value);
      break;
    case Instr::Kind::IfEq:
    case Instr::Kind::IfNe: {
      auto It = S.Regs[T].find(I.CondReg);
      uint64_t V = It == S.Regs[T].end() ? 0 : It->second;
      bool Taken = I.K == Instr::Kind::IfEq ? V == I.Value : V != I.Value;
      if (Taken)
        S.Stacks[T].push_back({&I.Body, 0});
      break;
    }
    }
  }

  /// The frame-stack ip path from the root uniquely identifies the open
  /// bodies, so positions serialize as ip sequences; memory serializes as
  /// the footprint bytes only (untouched bytes never change).
  std::string serialize(State &S) const {
    std::string Key;
    for (unsigned T = 0; T < P.numThreads(); ++T) {
      (void)next(S, T); // normalize: drop exhausted frames first
      put32(Key, static_cast<uint32_t>(S.Stacks[T].size()));
      for (const Frame &F : S.Stacks[T])
        put32(Key, static_cast<uint32_t>(F.Ip));
      put32(Key, static_cast<uint32_t>(S.Regs[T].size()));
      for (const auto &[R, V] : S.Regs[T]) {
        put32(Key, R);
        put64(Key, V);
      }
    }
    for (const ByteKey &B : Touched)
      Key.push_back(static_cast<char>(S.Mem[B.first][B.second]));
    return Key;
  }

  void run(State S) {
    // Drain invisible steps run-to-completion, no scheduling branch: the
    // wide-filler reduction. Visibility is static, so one pass per thread
    // suffices (threads cannot re-hide each other's steps).
    for (unsigned T = 0; T < P.numThreads(); ++T)
      for (const Instr *I = next(S, T); I && invisible(*I);
           I = next(S, T))
        step(S, T);
    std::vector<unsigned> Runnable;
    for (unsigned T = 0; T < P.numThreads(); ++T)
      if (next(S, T))
        Runnable.push_back(T);
    if (Runnable.empty()) {
      Outcome O;
      for (unsigned T = 0; T < P.numThreads(); ++T)
        for (const auto &[R, V] : S.Regs[T])
          O.add(static_cast<int>(T), R, V);
      Outcomes.insert(std::move(O));
      return;
    }
    if (!Visited.insert(serialize(S)).second)
      return;
    ++States;
    for (unsigned T : Runnable) {
      State Child = S;
      step(Child, T);
      run(std::move(Child));
    }
  }
};

} // namespace

std::vector<Outcome>
jsmm::analysis::enumerateScOutcomes(const Program &P,
                                    uint64_t *StatesExplored) {
  JsWalk W(P);
  W.run(W.initialState());
  if (StatesExplored)
    *StatesExplored = W.States;
  return {W.Outcomes.begin(), W.Outcomes.end()};
}
