//===- flatsim/FlatSim.cpp ------------------------------------------------===//

#include "flatsim/FlatSim.h"

#include "engine/ExecutionEngine.h"
#include "support/Str.h"

#include <map>
#include <set>

using namespace jsmm;

Relation jsmm::flatPreservedOrder(const ArmExecution &X) {
  unsigned N = X.numEvents();
  Relation Order(N);
  for (unsigned A = 0; A < N; ++A) {
    for (unsigned B = 0; B < N; ++B) {
      if (!X.Po.get(A, B))
        continue;
      const ArmEvent &Ea = X.Events[A];
      const ArmEvent &Eb = X.Events[B];
      // Overlapping same-thread accesses commit in program order.
      if (armOverlap(Ea, Eb))
        Order.set(A, B);
      // Acquire load orders everything po-later.
      if (Ea.isRead() && Ea.Acquire)
        Order.set(A, B);
      // Everything po-earlier orders before a release store; a release
      // orders before a po-later acquire load (covered by the previous
      // rule only when the acquire is first, so state it explicitly).
      if (Eb.isWrite() && Eb.Release)
        Order.set(A, B);
      if (Ea.isWrite() && Ea.Release && Eb.isRead() && Eb.Acquire)
        Order.set(A, B);
      // Barriers.
      if (Eb.Kind == ArmKind::DmbFull || Ea.Kind == ArmKind::DmbFull)
        Order.set(A, B);
      if (Eb.Kind == ArmKind::DmbLd && Ea.isRead())
        Order.set(A, B);
      if (Ea.Kind == ArmKind::DmbLd)
        Order.set(A, B);
      if (Eb.Kind == ArmKind::DmbSt && Ea.isWrite())
        Order.set(A, B);
      if (Ea.Kind == ArmKind::DmbSt && Eb.isWrite())
        Order.set(A, B);
      // isb: orders dependency-resolved program state; with the ctrl/addr
      // rules below this yields the ctrl+isb → R guarantee.
      if (Eb.Kind == ArmKind::Isb && Ea.isRead() &&
          (bits::any(X.CtrlDep.row(A)) || bits::any(X.AddrDep.row(A))))
        Order.set(A, B);
      if (Ea.Kind == ArmKind::Isb && Eb.isRead())
        Order.set(A, B);
    }
  }
  // Dependencies: the providing load commits first. Control dependencies
  // order stores only (loads may be speculated past branches).
  X.AddrDep.forEachPair([&](unsigned A, unsigned B) { Order.set(A, B); });
  X.DataDep.forEachPair([&](unsigned A, unsigned B) { Order.set(A, B); });
  X.CtrlDep.forEachPair([&](unsigned A, unsigned B) {
    if (X.Events[B].isWrite())
      Order.set(A, B);
  });
  // Exclusive pairs.
  X.Rmw.forEachPair([&](unsigned A, unsigned B) { Order.set(A, B); });
  return Order;
}

namespace {

/// DFS over commit orders against a flat byte memory.
class FlatRunner {
public:
  FlatRunner(
      const ArmSkeleton &S,
      const std::function<bool(const ArmExecution &, const Outcome &)> &Visit,
      std::set<std::string> &Seen)
      : S(S), X(S.Exec), Visit(Visit), Seen(Seen) {
    Preserved = flatPreservedOrder(X);
    for (unsigned B = 0; B < X.numEvents(); ++B)
      Preds.push_back(Preserved.column(B) &
                      ~X.eventsWhere([](const ArmEvent &E) {
                        return E.IsInit;
                      }));
    // Initialise memory and granule state from the Init events.
    X.Co = X.computeGranules();
    for (const ArmEvent &E : X.Events)
      if (E.IsInit)
        for (unsigned Loc = E.begin(); Loc < E.end(); ++Loc)
          Memory[{E.Block, Loc}] = {0, E.Id};
    InitMask = X.eventsWhere([](const ArmEvent &E) { return E.IsInit; });
  }

  bool run() { return recurse(InitMask); }

private:
  struct Cell {
    uint8_t Value = 0;
    EventId Writer = 0;
  };

  bool recurse(const BitSet &Committed) {
    if (Committed == X.allEventsMask())
      return emit();
    BitSet Uncommitted = ~Committed;
    for (unsigned E = 0; E < X.numEvents(); ++E) {
      if (!bits::test(Uncommitted, E) || bits::any(Preds[E] & Uncommitted))
        continue;
      if (!commit(E, Committed))
        return false;
    }
    return true;
  }

  /// Attempts to commit event \p E; recurses on success. \returns false
  /// only if the visitor stopped the enumeration.
  bool commit(unsigned Id, BitSet Committed) {
    bits::set(Committed, Id);
    ArmEvent &E = X.Events[Id];
    if (E.isRead()) {
      // Read the current memory; prune against path constraints.
      std::vector<RbfEdge> Added;
      for (unsigned Loc = E.begin(); Loc < E.end(); ++Loc) {
        const Cell &C = Memory[{E.Block, Loc}];
        E.Bytes[Loc - E.Index] = C.Value;
        Added.push_back({Loc, C.Writer, Id});
      }
      auto RegIt = S.RegOfEvent.find(Id);
      assert(RegIt != S.RegOfEvent.end() && "read without register");
      if (!armConstraintsAllow(*S.Paths[E.Thread], RegIt->second,
                               valueOfBytes(E.Bytes)))
        return true; // wrong speculation; squash this branch
      for (const RbfEdge &A : Added)
        X.Rbf.push_back(A);
      bool Continue = recurse(Committed);
      X.Rbf.resize(X.Rbf.size() - Added.size());
      return Continue;
    }
    if (E.isWrite()) {
      // Exclusive store: fails (and the whole interleaving is abandoned)
      // if another write to an overlapping byte intervened since the
      // paired load. We model only successful pairs: the paired load must
      // still be the... (checked via memory writer of each byte).
      if (E.Exclusive) {
        EventId PairedLoad = ~0u;
        X.Rmw.forEachPair([&](unsigned R, unsigned W) {
          if (W == Id)
            PairedLoad = R;
        });
        if (PairedLoad != ~0u) {
          // The bytes the pair covers must not have been overwritten since
          // the load read them.
          const ArmEvent &L = X.Events[PairedLoad];
          for (unsigned Loc = L.begin(); Loc < L.end(); ++Loc) {
            EventId CurrentWriter = Memory[{L.Block, Loc}].Writer;
            bool LoadSaw = false;
            for (const RbfEdge &R : X.Rbf)
              if (R.Reader == PairedLoad && R.Loc == Loc &&
                  R.Writer == CurrentWriter)
                LoadSaw = true;
            if (!LoadSaw)
              return true; // exclusive failure: prune
          }
        }
      }
      std::vector<std::pair<std::pair<unsigned, unsigned>, Cell>> Undo;
      for (unsigned Loc = E.begin(); Loc < E.end(); ++Loc) {
        std::pair<unsigned, unsigned> Key{E.Block, Loc};
        Undo.push_back({Key, Memory[Key]});
        Memory[Key] = {E.byteAt(Loc), Id};
      }
      std::vector<size_t> Appended;
      for (size_t G = 0; G < X.Co.size(); ++G)
        if (X.Co[G].Block == E.Block && E.touchesByte(X.Co[G].Begin)) {
          X.Co[G].Order.push_back(Id);
          Appended.push_back(G);
        }
      bool Continue = recurse(Committed);
      for (size_t G : Appended)
        X.Co[G].Order.pop_back();
      for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
        Memory[It->first] = It->second;
      return Continue;
    }
    // Fence: no memory effect.
    return recurse(Committed);
  }

  bool emit() {
    Outcome O;
    for (const auto &[Id, Reg] : S.RegOfEvent)
      O.add(X.Events[Id].Thread, Reg, valueOfBytes(X.Events[Id].Bytes));
    // Deduplicate executions across interleavings: two interleavings that
    // produce the same rbf and coherence are the same execution.
    std::string Key = O.toString() + "|";
    for (const RbfEdge &E : X.Rbf)
      Key += std::to_string(E.Loc) + ":" + std::to_string(E.Writer) + ">" +
             std::to_string(E.Reader) + ";";
    Key += "|";
    for (const CoGranule &G : X.Co) {
      for (EventId W : G.Order)
        Key += std::to_string(W) + ".";
      Key += ";";
    }
    if (!Seen.insert(Key).second)
      return true;
    return Visit(X, O);
  }

  const ArmSkeleton &S;
  ArmExecution X;
  const std::function<bool(const ArmExecution &, const Outcome &)> &Visit;
  std::set<std::string> &Seen;
  Relation Preserved;
  std::vector<BitSet> Preds;
  std::map<std::pair<unsigned, unsigned>, Cell> Memory;
  BitSet InitMask;
};

} // namespace

bool jsmm::forEachFlatExecution(
    const ArmProgram &P,
    const std::function<bool(const ArmExecution &, const Outcome &)> &Visit) {
  // The simulator is a frontend of the engine: the engine unfolds the
  // control-flow skeletons, the flat storage subsystem replays them.
  std::set<std::string> Seen;
  return ExecutionEngine().forEachSkeleton(P, [&](const ArmSkeleton &S) {
    FlatRunner R(S, Visit, Seen);
    return R.run();
  });
}

FlatResult jsmm::runFlat(const ArmProgram &P) {
  FlatResult Result;
  forEachFlatExecution(P, [&](const ArmExecution &X, const Outcome &O) {
    (void)X;
    ++Result.DistinctExecutions;
    Result.Outcomes.insert(O.toString());
    return true;
  });
  return Result;
}
