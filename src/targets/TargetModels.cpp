//===- targets/TargetModels.cpp -------------------------------------------===//

#include "targets/TargetModels.h"

#include <algorithm>

using namespace jsmm;

std::string TargetEvent::toString() const {
  if (Kind == TKind::Fence) {
    switch (Fence) {
    case TFence::MFence:
      return std::to_string(Id) + ": mfence";
    case TFence::Sync:
      return std::to_string(Id) + ": sync";
    case TFence::LwSync:
      return std::to_string(Id) + ": lwsync";
    case TFence::CtrlIsync:
      return std::to_string(Id) + ": ctrl+isync";
    case TFence::DmbV7:
      return std::to_string(Id) + ": dmb";
    case TFence::FenceRWRW:
      return std::to_string(Id) + ": fence rw,rw";
    case TFence::FenceRWW:
      return std::to_string(Id) + ": fence rw,w";
    case TFence::FenceRRW:
      return std::to_string(Id) + ": fence r,rw";
    case TFence::None:
      break;
    }
    return std::to_string(Id) + ": fence?";
  }
  std::string Out = std::to_string(Id) + ": ";
  Out += Kind == TKind::Rmw ? "RMW" : (Kind == TKind::Write ? "W" : "R");
  if (Acq)
    Out += ".aq";
  if (Rel)
    Out += ".rl";
  if (Sc)
    Out += ".sc";
  if (IsInit)
    Out += ".init";
  Out += " x" + std::to_string(Loc);
  if (isWrite())
    Out += '=' + std::to_string(WriteVal);
  if (isRead())
    Out += " reads " + std::to_string(ReadVal);
  return Out;
}

TargetExecution::TargetExecution(std::vector<TargetEvent> Evs, unsigned NumLocs)
    : Events(std::move(Evs)), Po(static_cast<unsigned>(Events.size())),
      Rf(static_cast<unsigned>(Events.size())), CoPerLoc(NumLocs) {
  for (unsigned I = 0; I < Events.size(); ++I)
    assert(Events[I].Id == I && "event id must equal its index");
}

Relation TargetExecution::coherence() const {
  Relation Co(numEvents());
  for (const std::vector<EventId> &Order : CoPerLoc)
    for (size_t I = 0; I < Order.size(); ++I)
      for (size_t J = I + 1; J < Order.size(); ++J)
        Co.set(Order[I], Order[J]);
  return Co;
}

Relation TargetExecution::fromReads() const {
  Relation Fr(numEvents());
  Rf.forEachPair([&](unsigned W, unsigned R) {
    const std::vector<EventId> &Order = CoPerLoc[Events[R].Loc];
    auto It = std::find(Order.begin(), Order.end(), W);
    assert(It != Order.end() && "rf writer missing from coherence");
    for (auto Later = It + 1; Later != Order.end(); ++Later)
      if (*Later != R)
        Fr.set(R, *Later);
  });
  return Fr;
}

Relation TargetExecution::poLoc() const {
  Relation Out(numEvents());
  Po.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].isAccess() && Events[B].isAccess() &&
        Events[A].Loc == Events[B].Loc)
      Out.set(A, B);
  });
  return Out;
}

Relation TargetExecution::externalPart(const Relation &R) const {
  Relation Out(numEvents());
  R.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].Thread != Events[B].Thread)
      Out.set(A, B);
  });
  return Out;
}

std::string TargetExecution::toString() const {
  std::string Out;
  for (const TargetEvent &E : Events)
    Out += "  " + E.toString() + "\n";
  Out += "  po: " + Po.toString() + "\n  rf: " + Rf.toString() + "\n";
  return Out;
}

bool jsmm::targetAdmits(const Relation &PoLoc, const Relation &Rf) {
  return PoLoc.unioned(Rf).isAcyclic();
}

bool jsmm::targetScPerLocation(const Relation &PoLoc, const Relation &Rf,
                               const Relation &Co, const Relation &Fr) {
  return PoLoc.unioned(Rf).unioned(Co).unioned(Fr).isAcyclic();
}

bool jsmm::targetAtomicity(const Relation &Co, const Relation &Fr) {
  return Fr.compose(Co).isIrreflexive();
}

namespace {

struct Masks {
  BitSet Reads, Writes, OnlyR, OnlyW, Acq, RelW, Sc;
  BitSet fence(const TargetExecution &X, TFence F) const {
    (void)this;
    return X.eventsWhere([&](const TargetEvent &E) {
      return E.Kind == TKind::Fence && E.Fence == F;
    });
  }
  static Masks compute(const TargetExecution &X) {
    Masks M;
    M.Reads = X.eventsWhere([](const TargetEvent &E) { return E.isRead(); });
    M.Writes = X.eventsWhere([](const TargetEvent &E) {
      return E.isWrite();
    });
    M.OnlyR = X.eventsWhere([](const TargetEvent &E) {
      return E.Kind == TKind::Read;
    });
    M.OnlyW = X.eventsWhere([](const TargetEvent &E) {
      return E.Kind == TKind::Write;
    });
    M.Acq = X.eventsWhere([](const TargetEvent &E) {
      return E.Acq && E.isRead();
    });
    M.RelW = X.eventsWhere([](const TargetEvent &E) {
      return E.Rel && E.isWrite();
    });
    M.Sc = X.eventsWhere([](const TargetEvent &E) {
      return E.Sc && E.isAccess();
    });
    return M;
  }
};

/// Distinct accesses to the same location. Each access's row is its
/// location's access mask less itself: work in the size of the output,
/// not a pair scan over every two events.
Relation sameLocRelation(const TargetExecution &X) {
  std::vector<BitSet> AtLoc(X.CoPerLoc.size(),
                            Relation::emptySet(X.numEvents()));
  for (const TargetEvent &E : X.Events)
    if (E.isAccess()) {
      assert(E.Loc < AtLoc.size() && "access location out of range");
      bits::set(AtLoc[E.Loc], E.Id);
    }
  Relation Out(X.numEvents());
  for (const TargetEvent &A : X.Events)
    if (A.isAccess())
      bits::forEach(AtLoc[A.Loc], [&](unsigned B) {
        if (B != A.Id)
          Out.set(A.Id, B);
      });
  return Out;
}

/// po ; [F] ; po with endpoint classes \p Pred and \p Succ.
Relation fenceEdges(const TargetExecution &X, const BitSet &FenceMask,
                    const BitSet &Pred,
                    const BitSet &Succ) {
  return X.Po.restricted(Pred, FenceMask)
      .compose(X.Po.restricted(FenceMask, Succ));
}

/// Release/acquire ordering between accesses: po from an acquire read, po
/// to a release write, and release write to acquire read. (An acquire's
/// po-edge into a fence reached a release write only through that fence's
/// own po-edge, and po is transitive: both ends are ordered directly.)
Relation acqRelEdges(const TargetExecution &X, const Masks &M) {
  BitSet Access = M.Reads | M.Writes;
  Relation Out = X.Po.restricted(M.Acq, Access);
  Out.unionWith(X.Po.restricted(Access, M.RelW));
  Out.unionWith(X.Po.restricted(M.RelW, M.Acq));
  return Out;
}

/// \p R renumbered through \p ViewOf (event id -> view id, or -1 for an
/// event outside the view) over a universe of \p N.
Relation project(const Relation &R, const std::vector<int> &ViewOf,
                 unsigned N) {
  Relation Out(N);
  R.forEachPair([&](unsigned A, unsigned B) {
    if (ViewOf[A] >= 0 && ViewOf[B] >= 0)
      Out.set(static_cast<unsigned>(ViewOf[A]),
              static_cast<unsigned>(ViewOf[B]));
  });
  return Out;
}

BitSet projectSet(const BitSet &S, const std::vector<EventId> &IdOf) {
  BitSet Out =
      Relation::emptySet(static_cast<unsigned>(IdOf.size()));
  for (unsigned K = 0; K < IdOf.size(); ++K)
    if (bits::test(S, IdOf[K]))
      bits::set(Out, K);
  return Out;
}

/// The herding-cats Power model's final axioms (NO THIN AIR, OBSERVATION,
/// PROPAGATION), parameterised through the statics by the full-fence
/// flavour (Power sync vs ARMv7 dmb) and the presence of lwsync.
bool powerStyleAxiom(const TargetCandidate &C, const TargetStatics &S) {
  const Relation &Rfe = C.rfe();
  Relation Fences = S.Lw.size() ? S.Ffence.unioned(S.Lw) : S.Ffence;
  Relation Hb = S.Ppo.unioned(Fences).unioned(Rfe);
  if (!Hb.isAcyclic())
    return false; // NO THIN AIR
  // Without fence edges PropBase and Prop are empty: OBSERVATION holds
  // and PROPAGATION is co acyclicity.
  if (Fences.empty())
    return C.Co.isAcyclic();

  Relation HbStar = Hb.reflexiveTransitiveClosure();
  Relation PropBase = Fences.unioned(Rfe.compose(Fences)).compose(HbStar);
  Relation Prop =
      PropBase.restricted(S.Writes, S.Writes)
          .unioned(C.comStar()
                       .compose(PropBase.reflexiveTransitiveClosure())
                       .compose(S.Ffence)
                       .compose(HbStar));
  // OBSERVATION
  if (!C.fre().compose(Prop).compose(HbStar).isIrreflexive())
    return false;
  // PROPAGATION
  return C.Co.unioned(Prop).isAcyclic();
}

/// ImmLite's COHERENCE, NO THIN AIR and SC axioms (RC11-style partial SC
/// order).
bool immLiteAxiom(const TargetCandidate &C, const TargetStatics &S) {
  const Relation &Sb = C.X.Po;
  Relation Sw = C.X.Rf.restricted(S.Sc, S.Sc);
  Relation Hb = Sb.unioned(Sw).transitiveClosure();
  // COHERENCE
  if (!Hb.isIrreflexive() || !Hb.compose(C.eco()).isIrreflexive())
    return false;
  // NO THIN AIR
  if (!Sb.unioned(C.X.Rf).isAcyclic())
    return false;
  // SC, which orders nothing in a program without SC accesses
  if (!bits::any(S.Sc))
    return true;
  Relation Scb = Sb.unioned(Sb.compose(Hb).compose(Sb))
                 .unioned(Hb.intersected(S.SameLoc))
                 .unioned(C.Co)
                 .unioned(C.Fr);
  return Scb.restricted(S.Sc, S.Sc).isAcyclic();
}

} // namespace

std::vector<EventId> jsmm::accessIds(const TargetExecution &X) {
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

TargetExecution jsmm::accessView(const TargetExecution &X,
                                 std::vector<EventId> &IdOf) {
  IdOf = accessIds(X);
  std::vector<int> ViewOf(X.numEvents(), -1);
  std::vector<TargetEvent> Events;
  for (EventId Id : IdOf) {
    ViewOf[Id] = static_cast<int>(Events.size());
    Events.push_back(X.Events[Id]);
    Events.back().Id = static_cast<EventId>(ViewOf[Id]);
  }
  unsigned N = static_cast<unsigned>(Events.size());
  TargetExecution V(std::move(Events),
                    static_cast<unsigned>(X.CoPerLoc.size()));
  V.Po = project(X.Po, ViewOf, N);
  V.Rf = project(X.Rf, ViewOf, N);
  for (size_t L = 0; L < X.CoPerLoc.size(); ++L)
    for (EventId W : X.CoPerLoc[L])
      if (ViewOf[W] >= 0)
        V.CoPerLoc[L].push_back(static_cast<EventId>(ViewOf[W]));
  return V;
}

TargetStatics
jsmm::targetStatics(const TargetExecution &X, TargetArch Arch,
                    const std::vector<EventId> *IdOf) {
  unsigned N = X.numEvents();
  Masks M = Masks::compute(X);
  BitSet Access = M.Reads | M.Writes;
  TargetStatics S;
  S.Arch = Arch;
  S.Writes = M.Writes;
  S.Sc = M.Sc;
  switch (Arch) {
  case TargetArch::X86:
    // ppo: program order minus write->read pairs (the store buffer); RMWs
    // are locked and never relaxed.
    S.Ppo = X.Po.restricted(Access, Access)
                .subtracted(Relation::product(M.OnlyW, M.OnlyR, N));
    S.Ppo.unionWith(fenceEdges(X, M.fence(X, TFence::MFence), Access, Access));
    break;
  case TargetArch::ArmV8:
    S.Ppo = acqRelEdges(X, M);
    break;
  case TargetArch::RiscV: {
    BitSet RW = Access;
    // Same-address ppo: ordered when the second access is a store.
    S.Ppo = X.poLoc().restricted(RW, M.Writes);
    S.Ppo.unionWith(fenceEdges(X, M.fence(X, TFence::FenceRWRW), RW, RW));
    S.Ppo.unionWith(
        fenceEdges(X, M.fence(X, TFence::FenceRWW), RW, M.Writes));
    S.Ppo.unionWith(
        fenceEdges(X, M.fence(X, TFence::FenceRRW), M.Reads, RW));
    S.Ppo.unionWith(acqRelEdges(X, M));
    break;
  }
  case TargetArch::Power:
  case TargetArch::ArmV7: {
    bool Power = Arch == TargetArch::Power;
    S.Ffence = fenceEdges(
        X, M.fence(X, Power ? TFence::Sync : TFence::DmbV7), Access, Access);
    BitSet LwSync = M.fence(X, TFence::LwSync);
    if (Power && bits::any(LwSync))
      S.Lw = fenceEdges(X, LwSync, Access, Access)
                 .subtracted(Relation::product(M.OnlyW, M.OnlyR, N));
    // ctrl+isync after a load orders that load before everything po-later.
    S.Ppo = fenceEdges(X, M.fence(X, TFence::CtrlIsync), M.Reads, Access);
    break;
  }
  case TargetArch::ImmLite:
    S.SameLoc = sameLocRelation(X);
    break;
  }
  if (!IdOf)
    return S;
  std::vector<int> ViewOf(N, -1);
  for (unsigned K = 0; K < IdOf->size(); ++K)
    ViewOf[(*IdOf)[K]] = static_cast<int>(K);
  unsigned V = static_cast<unsigned>(IdOf->size());
  for (Relation *R : {&S.Ppo, &S.Ffence, &S.Lw, &S.SameLoc})
    if (R->size())
      *R = project(*R, ViewOf, V);
  S.Writes = projectSet(S.Writes, *IdOf);
  S.Sc = projectSet(S.Sc, *IdOf);
  return S;
}

const Relation &TargetCandidate::rfe() const {
  if (!Rfe)
    Rfe = X.externalPart(X.Rf);
  return *Rfe;
}

const Relation &TargetCandidate::fre() const {
  if (!Fre)
    Fre = X.externalPart(Fr);
  return *Fre;
}

const Relation &TargetCandidate::comExt() const {
  if (!ComExt)
    ComExt = rfe().unioned(X.externalPart(Co)).unioned(fre());
  return *ComExt;
}

const Relation &TargetCandidate::eco() const {
  if (!Eco)
    Eco = X.Rf.unioned(Co).unioned(Fr).transitiveClosure();
  return *Eco;
}

const Relation &TargetCandidate::comStar() const {
  if (!ComStar) {
    ComStar = eco();
    for (unsigned A = 0; A < X.numEvents(); ++A)
      ComStar->set(A, A);
  }
  return *ComStar;
}

bool jsmm::targetFinalAxiom(const TargetCandidate &C, const TargetStatics &S) {
  switch (S.Arch) {
  case TargetArch::X86:
    return S.Ppo.unioned(C.rfe()).unioned(C.Co).unioned(C.Fr).isAcyclic();
  case TargetArch::ArmV8:
  case TargetArch::RiscV:
    // ARMv8: ob = obs ∪ bob; RISC-V: gmo = ppo ∪ rfe ∪ coe ∪ fre.
    return C.comExt().unioned(S.Ppo).isAcyclic();
  case TargetArch::Power:
  case TargetArch::ArmV7:
    return powerStyleAxiom(C, S);
  case TargetArch::ImmLite:
    return immLiteAxiom(C, S);
  }
  return false;
}

bool jsmm::isTargetConsistent(const TargetExecution &X, TargetArch Arch) {
  TargetStatics S = targetStatics(X, Arch);
  TargetCandidate C(X);
  if (Arch != TargetArch::ImmLite &&
      !targetScPerLocation(X.poLoc(), X.Rf, C.Co, C.Fr))
    return false;
  return targetAtomicity(C.Co, C.Fr) && targetFinalAxiom(C, S);
}
