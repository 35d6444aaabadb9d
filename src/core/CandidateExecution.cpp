//===- core/CandidateExecution.cpp ----------------------------------------===//

#include "core/CandidateExecution.h"

#include "support/Str.h"

#include <algorithm>
#include <map>

using namespace jsmm;

CandidateExecution::CandidateExecution(std::vector<Event> Evs)
    : Events(std::move(Evs)), Sb(static_cast<unsigned>(Events.size())),
      Asw(static_cast<unsigned>(Events.size())),
      Tot(static_cast<unsigned>(Events.size())) {
  for (unsigned I = 0; I < Events.size(); ++I)
    assert(Events[I].Id == I && "event id must equal its index");
}

Relation CandidateExecution::readsFrom() const {
  Relation Rf(numEvents());
  for (const RbfEdge &E : Rbf)
    Rf.set(E.Writer, E.Reader);
  return Rf;
}

Relation CandidateExecution::synchronizesWith(SwDefKind Def,
                                              const Relation &Rf) const {
  Relation Sw = Asw;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    const Event &Ew = Events[W];
    const Event &Er = Events[R];
    if (Er.Ord != Mode::SeqCst)
      return;
    switch (Def) {
    case SwDefKind::SpecWithInitCase: {
      // <Ew,Er> in sw iff (same-range and Ew is SeqCst), or Er reads only
      // from Init events.
      if (sameWriteReadRange(Ew, Er) && Ew.Ord == Mode::SeqCst) {
        Sw.set(W, R);
        return;
      }
      bool ReadsOnlyInit = true;
      bits::forEach(Rf.column(R), [&](unsigned C) {
        if (Events[C].Ord != Mode::Init)
          ReadsOnlyInit = false;
      });
      if (ReadsOnlyInit)
        Sw.set(W, R);
      return;
    }
    case SwDefKind::Simplified:
      if (sameWriteReadRange(Ew, Er) && Ew.Ord == Mode::SeqCst)
        Sw.set(W, R);
      return;
    }
  });
  return Sw;
}

Relation CandidateExecution::happensBefore(SwDefKind Def) const {
  return derived(Def).Hb;
}

const DerivedTriple &
CandidateExecution::derived(SwDefKind Def) const {
  // rf/sw/hb depend on the rbf edges and the sb and asw relations only:
  // event kinds, modes and footprints are fixed at construction, and read
  // *values* do not enter the derived relations. The cached inputs are
  // compared exactly — small vectors of words — so a stale triple can
  // never be returned.
  DerivedCacheSlot &Slot = DerivedCache[static_cast<unsigned>(Def)];
  if (!Slot.Valid || Slot.KeyRbf != Rbf || Slot.KeySb != Sb ||
      Slot.KeyAsw != Asw) {
    Slot.D.Rf = readsFrom();
    Slot.D.Sw = synchronizesWith(Def, Slot.D.Rf);
    Slot.D.Hb = happensBeforeFromSw(Slot.D.Sw);
    Slot.KeyRbf = Rbf;
    Slot.KeySb = Sb;
    Slot.KeyAsw = Asw;
    Slot.Valid = true;
  }
  return Slot.D;
}

Relation CandidateExecution::happensBeforeFromSw(const Relation &Sw) const {
  Relation Base = Sb;
  Base.unionWith(Sw);
  for (const Event &A : Events) {
    if (A.Ord != Mode::Init)
      continue;
    for (const Event &B : Events)
      if (A.Id != B.Id && overlap(A, B))
        Base.set(A.Id, B.Id);
  }
  return Base.transitiveClosure();
}

bool CandidateExecution::checkWellFormed(std::string *Err) const {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return false;
  };

  unsigned N = numEvents();
  if (Sb.size() != N || Asw.size() != N)
    return Fail("relation universe does not match the event count");
  for (unsigned I = 0; I < N; ++I)
    if (Events[I].Id != I)
      return Fail("event id does not equal its index");

  // sb: intra-thread, and a strict total order on each thread's events.
  std::map<int, BitSet> ThreadEvents;
  for (const Event &E : Events)
    if (E.Ord != Mode::Init) {
      auto [It, Inserted] =
          ThreadEvents.try_emplace(E.Thread, Relation::emptySet(N));
      (void)Inserted;
      bits::set(It->second, E.Id);
    }
  bool SbOk = true;
  Sb.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].Ord == Mode::Init || Events[B].Ord == Mode::Init ||
        Events[A].Thread != Events[B].Thread || A == B)
      SbOk = false;
  });
  if (!SbOk)
    return Fail("sb relates events of different threads, Init events, or "
                "an event to itself");
  for (const auto &[Thread, Mask] : ThreadEvents) {
    (void)Thread;
    if (!Sb.restricted(Mask, Mask).isStrictTotalOrderOn(Mask))
      return Fail("sb is not a strict total order on thread " +
                  std::to_string(Thread));
  }

  // asw: no self edges.
  for (unsigned A = 0; A < N; ++A)
    if (Asw.get(A, A))
      return Fail("asw contains a self edge");

  // rbf: exactly one justifying write per read byte; writer covers the byte
  // with a matching value; no self-justification; no edges for bytes a read
  // does not read.
  for (const RbfEdge &E : Rbf) {
    if (E.Writer >= N || E.Reader >= N)
      return Fail("rbf mentions an unknown event");
    const Event &W = Events[E.Writer];
    const Event &R = Events[E.Reader];
    if (E.Writer == E.Reader)
      return Fail("rbf lets an event read from itself");
    if (W.Block != R.Block)
      return Fail("rbf relates events of different blocks");
    if (!R.readsByte(E.Loc))
      return Fail("rbf justifies a byte outside the read's range");
    if (!W.writesByte(E.Loc))
      return Fail("rbf writer does not write the byte");
    if (W.writtenByteAt(E.Loc) != R.ReadBytes[E.Loc - R.Index])
      return Fail("rbf byte value mismatch");
  }
  for (const Event &R : Events) {
    for (unsigned Loc = R.readBegin(); Loc < R.readEnd(); ++Loc) {
      unsigned Justifications = 0;
      for (const RbfEdge &E : Rbf)
        if (E.Reader == R.Id && E.Loc == Loc)
          ++Justifications;
      if (Justifications != 1)
        return Fail("read byte with " + std::to_string(Justifications) +
                    " justifications (expected exactly 1)");
    }
  }

  // tot (if provided): strict total order on all events.
  if (hasTot() && !Tot.isStrictTotalOrderOn(allEventsMask()))
    return Fail("tot is not a strict total order on all events");

  return true;
}

std::string CandidateExecution::toString() const {
  std::string Out;
  for (const Event &E : Events)
    Out += "  " + E.toString() + "\n";
  Out += "  sb:  " + Sb.toString() + "\n";
  if (!Asw.empty())
    Out += "  asw: " + Asw.toString() + "\n";
  Out += "  rbf: {";
  for (size_t I = 0; I < Rbf.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "<" + std::to_string(Rbf[I].Loc) + "," +
           std::to_string(Rbf[I].Writer) + "," + std::to_string(Rbf[I].Reader) +
           ">";
  }
  Out += "}\n";
  if (hasTot())
    Out += "  tot: " + Tot.toString() + "\n";
  return Out;
}
