//===- armv8/ArmExecution.cpp ---------------------------------------------===//

#include "armv8/ArmExecution.h"

#include <algorithm>
#include <map>
#include <set>

using namespace jsmm;

ArmExecution::ArmExecution(std::vector<ArmEvent> Evs)
    : Events(std::move(Evs)), Po(static_cast<unsigned>(Events.size())),
      AddrDep(static_cast<unsigned>(Events.size())),
      DataDep(static_cast<unsigned>(Events.size())),
      CtrlDep(static_cast<unsigned>(Events.size())),
      Rmw(static_cast<unsigned>(Events.size())) {
  for (unsigned I = 0; I < Events.size(); ++I)
    assert(Events[I].Id == I && "event id must equal its index");
}

std::vector<CoGranule> ArmExecution::computeGranules() const {
  std::vector<CoGranule> Granules;
  // Gather, per block, the extent of accessed bytes.
  std::map<unsigned, unsigned> BlockEnd;
  for (const ArmEvent &E : Events)
    if (E.isAccess())
      BlockEnd[E.Block] = std::max(BlockEnd[E.Block], E.end());
  for (const auto &[Block, End] : BlockEnd) {
    std::vector<uint64_t> Writers(End, 0);
    for (const ArmEvent &E : Events)
      if (E.isWrite() && E.Block == Block)
        for (unsigned Loc = E.begin(); Loc < E.end(); ++Loc)
          Writers[Loc] |= uint64_t(1) << E.Id;
    unsigned Loc = 0;
    while (Loc < End) {
      if (Writers[Loc] == 0) {
        ++Loc;
        continue;
      }
      unsigned Begin = Loc;
      while (Loc < End && Writers[Loc] == Writers[Begin])
        ++Loc;
      CoGranule G;
      G.Block = Block;
      G.Begin = Begin;
      G.End = Loc;
      // Seed with Init first (coherence-least write).
      uint64_t Set = Writers[Begin];
      while (Set) {
        unsigned W = static_cast<unsigned>(__builtin_ctzll(Set));
        Set &= Set - 1;
        if (Events[W].IsInit)
          G.Order.push_back(W);
      }
      Granules.push_back(G);
    }
  }
  return Granules;
}

Relation ArmExecution::readsFrom() const {
  Relation Rf(numEvents());
  for (const RbfEdge &E : Rbf)
    Rf.set(E.Writer, E.Reader);
  return Rf;
}

Relation ArmExecution::coherence() const {
  Relation Coh(numEvents());
  for (const CoGranule &G : Co)
    for (size_t I = 0; I < G.Order.size(); ++I)
      for (size_t J = I + 1; J < G.Order.size(); ++J)
        Coh.set(G.Order[I], G.Order[J]);
  return Coh;
}

Relation ArmExecution::fromReads() const {
  return fromReadsImpl(/*WriterMustBePlaced=*/true);
}

Relation ArmExecution::fromReadsKnownCo() const {
  return fromReadsImpl(/*WriterMustBePlaced=*/false);
}

Relation ArmExecution::fromReadsImpl(bool WriterMustBePlaced) const {
  (void)WriterMustBePlaced;
  Relation Fr(numEvents());
  for (const RbfEdge &E : Rbf) {
    // Find the granule holding this byte; every write coherence-after the
    // read's writer is from-read-after the read.
    for (const CoGranule &G : Co) {
      if (G.Block != Events[E.Writer].Block || E.Loc < G.Begin ||
          E.Loc >= G.End)
        continue;
      auto It = std::find(G.Order.begin(), G.Order.end(), E.Writer);
      assert((!WriterMustBePlaced || It != G.Order.end()) &&
             "rbf writer missing from granule order");
      if (It != G.Order.end())
        for (auto Later = It + 1; Later != G.Order.end(); ++Later)
          Fr.set(E.Reader, *Later);
      break;
    }
  }
  return Fr;
}

Relation ArmExecution::externalPart(const Relation &R) const {
  Relation Out(numEvents());
  R.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].Thread != Events[B].Thread)
      Out.set(A, B);
  });
  return Out;
}

Relation ArmExecution::internalPart(const Relation &R) const {
  Relation Out(numEvents());
  R.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].Thread == Events[B].Thread)
      Out.set(A, B);
  });
  return Out;
}

bool ArmExecution::checkWellFormed(std::string *Err) const {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  unsigned N = numEvents();
  if (Po.size() != N)
    return Fail("po universe does not match the event count");

  // po: strict total order per thread; Init not in po.
  std::map<int, BitSet> ThreadEvents;
  for (const ArmEvent &E : Events)
    if (!E.IsInit)
      bits::set(ThreadEvents.try_emplace(E.Thread, N).first->second, E.Id);
  bool PoOk = true;
  Po.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].IsInit || Events[B].IsInit ||
        Events[A].Thread != Events[B].Thread)
      PoOk = false;
  });
  if (!PoOk)
    return Fail("po relates Init events or events of different threads");
  for (const auto &[Thread, Mask] : ThreadEvents) {
    (void)Thread;
    if (!Po.restricted(Mask, Mask).isStrictTotalOrderOn(Mask))
      return Fail("po is not a strict total order on a thread");
  }

  // rbf: exactly one matching writer per read byte.
  for (const RbfEdge &E : Rbf) {
    if (E.Writer >= N || E.Reader >= N)
      return Fail("rbf mentions an unknown event");
    const ArmEvent &W = Events[E.Writer];
    const ArmEvent &R = Events[E.Reader];
    if (!W.isWrite() || !R.isRead() || W.Block != R.Block)
      return Fail("rbf edge with bad endpoints");
    if (!R.touchesByte(E.Loc) || !W.touchesByte(E.Loc))
      return Fail("rbf edge outside the events' ranges");
    if (W.byteAt(E.Loc) != R.byteAt(E.Loc))
      return Fail("rbf byte value mismatch");
  }
  for (const ArmEvent &R : Events) {
    if (!R.isRead())
      continue;
    for (unsigned Loc = R.begin(); Loc < R.end(); ++Loc) {
      unsigned Justifications = 0;
      for (const RbfEdge &E : Rbf)
        if (E.Reader == R.Id && E.Loc == Loc)
          ++Justifications;
      if (Justifications != 1)
        return Fail("read byte without exactly one justification");
    }
  }

  // co: granule orders must be permutations of the writers of their bytes,
  // with Init (when present) first.
  for (const CoGranule &G : Co) {
    std::set<EventId> InOrder(G.Order.begin(), G.Order.end());
    if (InOrder.size() != G.Order.size())
      return Fail("granule order repeats a write");
    for (unsigned Loc = G.Begin; Loc < G.End; ++Loc) {
      std::set<EventId> Writers;
      for (const ArmEvent &E : Events)
        if (E.isWrite() && E.Block == G.Block && E.touchesByte(Loc))
          Writers.insert(E.Id);
      if (Writers != InOrder)
        return Fail("granule order does not match the byte's writer set");
    }
    for (size_t I = 1; I < G.Order.size(); ++I)
      if (Events[G.Order[I]].IsInit)
        return Fail("Init write is not coherence-first");
  }

  // rmw: read-exclusive po-before its paired write-exclusive, same thread
  // and footprint.
  bool RmwOk = true;
  Rmw.forEachPair([&](unsigned A, unsigned B) {
    const ArmEvent &R = Events[A];
    const ArmEvent &W = Events[B];
    if (!R.isRead() || !W.isWrite() || !R.Exclusive || !W.Exclusive ||
        R.Thread != W.Thread || !Po.get(A, B) || R.Block != W.Block ||
        R.begin() != W.begin() || R.end() != W.end())
      RmwOk = false;
  });
  if (!RmwOk)
    return Fail("malformed exclusive pair");
  return true;
}

std::string ArmExecution::toString() const {
  std::string Out;
  for (const ArmEvent &E : Events)
    Out += "  " + E.toString() + "\n";
  Out += "  po: " + Po.toString() + "\n";
  Out += "  rbf: {";
  for (size_t I = 0; I < Rbf.size(); ++I) {
    if (I)
      Out += ", ";
    Out += '<' + std::to_string(Rbf[I].Loc) + "," +
           std::to_string(Rbf[I].Writer) + "," + std::to_string(Rbf[I].Reader) +
           ">";
  }
  Out += "}\n  co: ";
  for (const CoGranule &G : Co) {
    Out += 'b' + std::to_string(G.Block) + "[" + std::to_string(G.Begin) +
           ".." + std::to_string(G.End - 1) + "]:";
    for (size_t I = 0; I < G.Order.size(); ++I)
      Out += (I ? "->" : " ") + std::to_string(G.Order[I]);
    Out += "  ";
  }
  Out += "\n";
  return Out;
}

bool jsmm::forEachCoherenceCompletion(ArmExecution &X,
                                      const std::function<bool()> &Visit) {
  std::function<bool(size_t)> Choose = [&](size_t GranuleIdx) -> bool {
    if (GranuleIdx == X.Co.size())
      return Visit();
    CoGranule &G = X.Co[GranuleIdx];
    size_t SeedLen = G.Order.size(); // Init writes already placed
    std::vector<EventId> Rest;
    for (const ArmEvent &E : X.Events)
      if (E.isWrite() && !E.IsInit && E.Block == G.Block &&
          E.touchesByte(G.Begin))
        Rest.push_back(E.Id);
    std::sort(Rest.begin(), Rest.end());
    bool Continue = true;
    do {
      G.Order.resize(SeedLen);
      G.Order.insert(G.Order.end(), Rest.begin(), Rest.end());
      if (!Choose(GranuleIdx + 1)) {
        Continue = false;
        break;
      }
    } while (std::next_permutation(Rest.begin(), Rest.end()));
    G.Order.resize(SeedLen);
    return Continue;
  };
  return Choose(0);
}
