//===- unisize/UniExecution.cpp -------------------------------------------===//

#include "unisize/UniExecution.h"

#include <map>

using namespace jsmm;

std::string UniEvent::toString() const {
  std::string Kind = isRMW() ? "RMW" : (isWrite() ? "W" : "R");
  std::string Out = std::to_string(Id) + ": " + Kind + modeName(Ord) + " x" +
                    std::to_string(Loc);
  if (isWrite())
    Out += "=" + std::to_string(WriteVal);
  if (isRead())
    Out += " reads " + std::to_string(ReadVal);
  return Out;
}

UniExecution::UniExecution(std::vector<UniEvent> Evs)
    : Events(std::move(Evs)), Sb(static_cast<unsigned>(Events.size())),
      Asw(static_cast<unsigned>(Events.size())),
      Rf(static_cast<unsigned>(Events.size())),
      Tot(static_cast<unsigned>(Events.size())) {
  for (unsigned I = 0; I < Events.size(); ++I)
    assert(Events[I].Id == I && "event id must equal its index");
}

Relation UniExecution::synchronizesWith() const {
  Relation Sw = Asw;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    if (Events[W].Ord == Mode::SeqCst && Events[R].Ord == Mode::SeqCst &&
        Events[W].Loc == Events[R].Loc)
      Sw.set(W, R);
  });
  return Sw;
}

Relation UniExecution::happensBefore() const {
  Relation Base = Sb.unioned(synchronizesWith());
  for (const UniEvent &A : Events) {
    if (A.Ord != Mode::Init)
      continue;
    for (const UniEvent &B : Events)
      if (A.Id != B.Id && A.Loc == B.Loc)
        Base.set(A.Id, B.Id);
  }
  return Base.transitiveClosure();
}

bool UniExecution::checkWellFormed(std::string *Err) const {
  auto Fail = [&](const std::string &Why) {
    if (Err)
      *Err = Why;
    return false;
  };
  unsigned N = numEvents();
  std::map<int, BitSet> ThreadEvents;
  for (const UniEvent &E : Events)
    if (E.Ord != Mode::Init) {
      auto [It, Inserted] =
          ThreadEvents.try_emplace(E.Thread, Relation::emptySet(N));
      (void)Inserted;
      bits::set(It->second, E.Id);
    }
  for (const auto &[Thread, Mask] : ThreadEvents) {
    (void)Thread;
    if (!Sb.restricted(Mask, Mask).isStrictTotalOrderOn(Mask))
      return Fail("sb is not a strict total order per thread");
  }
  for (const UniEvent &R : Events) {
    if (!R.isRead())
      continue;
    unsigned Writers = 0;
    Rf.forEachPair([&](unsigned W, unsigned Rd) {
      if (Rd != R.Id)
        return;
      ++Writers;
      const UniEvent &Ew = Events[W];
      if (!Ew.isWrite() || Ew.Loc != R.Loc || Ew.WriteVal != R.ReadVal ||
          W == R.Id)
        Writers += 100; // poison: malformed edge
    });
    if (Writers != 1)
      return Fail("read without exactly one matching writer");
  }
  bool RfOk = true;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!Events[W].isWrite() || !Events[R].isRead())
      RfOk = false;
  });
  if (!RfOk)
    return Fail("rf endpoints have wrong kinds");
  if (!Tot.empty() && !Tot.isStrictTotalOrderOn(allEventsMask()))
    return Fail("tot is not a strict total order");
  return true;
}

std::string UniExecution::toString() const {
  std::string Out;
  for (const UniEvent &E : Events)
    Out += "  " + E.toString() + "\n";
  Out += "  sb: " + Sb.toString() + "\n  rf: " + Rf.toString() + "\n";
  return Out;
}

namespace {

bool sameLoc(const UniEvent &A, const UniEvent &B) { return A.Loc == B.Loc; }

/// The uni-size Sequentially Consistent Atomics rule of Fig. 12 against a
/// given tot.
bool checkUniScAtomics(const UniExecution &X, const Relation &Rf,
                       const Relation &Sw, const Relation &Hb,
                       const Relation &Tot) {
  bool Ok = true;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!Ok || !Hb.get(W, R))
      return;
    const UniEvent &Ew = X.Events[W];
    const UniEvent &Er = X.Events[R];
    bits::forEachWhile(Tot.row(W) & Tot.column(R), [&](unsigned C) {
      const UniEvent &Ec = X.Events[C];
      if (Ec.Ord != Mode::SeqCst || !Ec.isWrite())
        return true;
      bool D1 = sameLoc(Ec, Er) && Sw.get(W, R);
      bool D2 = sameLoc(Ew, Ec) && Ew.Ord == Mode::SeqCst && Hb.get(C, R);
      bool D3 = sameLoc(Ec, Er) && Hb.get(W, C) && Er.Ord == Mode::SeqCst;
      if (D1 || D2 || D3) {
        Ok = false;
        return false;
      }
      return true;
    });
  });
  return Ok;
}

bool checkUniTotIndependent(const UniExecution &X, const Relation &Rf,
                            const Relation &Hb, std::string *WhyNot) {
  auto Fail = [&](const char *Why) {
    if (WhyNot)
      *WhyNot = Why;
    return false;
  };
  // HBC (2): no read happens-before its writer.
  bool Hbc2 = true;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    if (Hb.get(R, W))
      Hbc2 = false;
  });
  if (!Hbc2)
    return Fail("happens-before consistency (2)");
  // HBC (3): no same-location write hb-between writer and reader.
  bool Hbc3 = true;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    bits::forEach(Hb.row(W), [&](unsigned C) {
      if (Hb.get(C, R) && X.Events[C].isWrite() &&
          X.Events[C].Loc == X.Events[R].Loc)
        Hbc3 = false;
    });
  });
  if (!Hbc3)
    return Fail("happens-before consistency (3)");
  return true;
}

} // namespace

bool jsmm::isUniValid(const UniExecution &X, std::string *WhyNot) {
  Relation Rf = X.Rf;
  Relation Sw = X.synchronizesWith();
  Relation Hb = X.happensBefore();
  if (!checkUniTotIndependent(X, Rf, Hb, WhyNot))
    return false;
  if (!X.Tot.contains(Hb)) {
    if (WhyNot)
      *WhyNot = "happens-before consistency (1)";
    return false;
  }
  if (!checkUniScAtomics(X, Rf, Sw, Hb, X.Tot)) {
    if (WhyNot)
      *WhyNot = "sequentially consistent atomics";
    return false;
  }
  return true;
}

bool jsmm::isUniValidForSomeTot(const UniExecution &X, Relation *TotOut,
                                const TotSolver &Solver) {
  Relation Rf = X.Rf;
  Relation Sw = X.synchronizesWith();
  Relation Hb = X.happensBefore();
  if (!checkUniTotIndependent(X, Rf, Hb, nullptr))
    return false;
  if (!Hb.isIrreflexive()) // happensBefore() is transitively closed
    return false;
  // The uni-size SC rule (checkUniScAtomics) forbids a SeqCst write C
  // strictly tot-between an rf ∩ hb pair <W,R> under tot-independent side
  // conditions — the exact betweenness form the order solvers decide.
  TotProblem P;
  P.N = X.numEvents();
  P.Universe = X.allEventsMask();
  P.Must = Hb;
  Rf.forEachPair([&](unsigned W, unsigned R) {
    if (!Hb.get(W, R))
      return;
    const UniEvent &Ew = X.Events[W];
    const UniEvent &Er = X.Events[R];
    for (const UniEvent &Ec : X.Events) {
      unsigned C = Ec.Id;
      if (C == W || C == R || Ec.Ord != Mode::SeqCst || !Ec.isWrite())
        continue;
      bool D1 = sameLoc(Ec, Er) && Sw.get(W, R);
      bool D2 = sameLoc(Ew, Ec) && Ew.Ord == Mode::SeqCst && Hb.get(C, R);
      bool D3 = sameLoc(Ec, Er) && Hb.get(W, C) && Er.Ord == Mode::SeqCst;
      if (D1 || D2 || D3)
        P.Forbidden.push_back({W, C, R});
    }
  });
  return Solver.existsExtension(P, TotOut);
}

bool jsmm::isUniValidForSomeTot(const UniExecution &X, Relation *TotOut) {
  return isUniValidForSomeTot(X, TotOut, defaultTotSolver());
}

UniEvent jsmm::makeUniWrite(EventId Id, int Thread, Mode Ord, unsigned Loc,
                            uint64_t Value) {
  UniEvent E;
  E.Id = Id;
  E.Thread = Thread;
  E.Ord = Ord;
  E.Loc = Loc;
  E.Writes = true;
  E.WriteVal = Value;
  return E;
}

UniEvent jsmm::makeUniRead(EventId Id, int Thread, Mode Ord, unsigned Loc,
                           uint64_t Value) {
  UniEvent E;
  E.Id = Id;
  E.Thread = Thread;
  E.Ord = Ord;
  E.Loc = Loc;
  E.Reads = true;
  E.ReadVal = Value;
  return E;
}

UniEvent jsmm::makeUniRMW(EventId Id, int Thread, unsigned Loc,
                          uint64_t ReadVal, uint64_t WriteVal) {
  UniEvent E;
  E.Id = Id;
  E.Thread = Thread;
  E.Ord = Mode::SeqCst;
  E.Loc = Loc;
  E.Reads = E.Writes = true;
  E.ReadVal = ReadVal;
  E.WriteVal = WriteVal;
  return E;
}

UniEvent jsmm::makeUniInit(EventId Id, unsigned Loc) {
  UniEvent E;
  E.Id = Id;
  E.Thread = -1;
  E.Ord = Mode::Init;
  E.Loc = Loc;
  E.Writes = true;
  E.WriteVal = 0;
  return E;
}
