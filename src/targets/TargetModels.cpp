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
    Out += "=" + std::to_string(WriteVal);
  if (isRead())
    Out += " reads " + std::to_string(ReadVal);
  return Out;
}

template <typename RelT>
BasicTargetExecution<RelT>::BasicTargetExecution(std::vector<TargetEvent> Evs,
                                                 unsigned NumLocs)
    : Events(std::move(Evs)), Po(static_cast<unsigned>(Events.size())),
      Rf(static_cast<unsigned>(Events.size())), CoPerLoc(NumLocs) {
  for (unsigned I = 0; I < Events.size(); ++I)
    assert(Events[I].Id == I && "event id must equal its index");
}

template <typename RelT> RelT BasicTargetExecution<RelT>::coherence() const {
  RelT Co(numEvents());
  for (const std::vector<EventId> &Order : CoPerLoc)
    for (size_t I = 0; I < Order.size(); ++I)
      for (size_t J = I + 1; J < Order.size(); ++J)
        Co.set(Order[I], Order[J]);
  return Co;
}

template <typename RelT> RelT BasicTargetExecution<RelT>::fromReads() const {
  RelT Fr(numEvents());
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

template <typename RelT> RelT BasicTargetExecution<RelT>::poLoc() const {
  RelT Out(numEvents());
  Po.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].isAccess() && Events[B].isAccess() &&
        Events[A].Loc == Events[B].Loc)
      Out.set(A, B);
  });
  return Out;
}

template <typename RelT>
RelT BasicTargetExecution<RelT>::externalPart(const RelT &R) const {
  RelT Out(numEvents());
  R.forEachPair([&](unsigned A, unsigned B) {
    if (Events[A].Thread != Events[B].Thread)
      Out.set(A, B);
  });
  return Out;
}

template <typename RelT>
std::string BasicTargetExecution<RelT>::toString() const {
  std::string Out;
  for (const TargetEvent &E : Events)
    Out += "  " + E.toString() + "\n";
  Out += "  po: " + Po.toString() + "\n  rf: " + Rf.toString() + "\n";
  return Out;
}

template <typename RelT>
bool jsmm::targetScPerLocation(const BasicTargetExecution<RelT> &X) {
  RelT PerLoc = X.poLoc();
  PerLoc.unionWith(X.Rf);
  PerLoc.unionWith(X.coherence());
  PerLoc.unionWith(X.fromReads());
  return PerLoc.isAcyclic();
}

template <typename RelT>
bool jsmm::targetAtomicity(const BasicTargetExecution<RelT> &X) {
  // No write coherence-intervenes inside an RMW: fr ; co never returns to
  // the RMW event itself.
  return X.fromReads().compose(X.coherence()).isIrreflexive();
}

namespace {

template <typename RelT> struct Masks {
  using Set = typename RelT::SetT;
  Set Reads, Writes, OnlyR, OnlyW, Rmws, Acq, RelW, Sc, All;
  Set fence(const BasicTargetExecution<RelT> &X, TFence F) const {
    (void)this;
    return X.eventsWhere([&](const TargetEvent &E) {
      return E.Kind == TKind::Fence && E.Fence == F;
    });
  }
  static Masks compute(const BasicTargetExecution<RelT> &X) {
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
    M.Rmws = X.eventsWhere([](const TargetEvent &E) {
      return E.Kind == TKind::Rmw;
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
    M.All = X.allEventsMask();
    return M;
  }
};

/// Distinct accesses to the same location. Each access's row is its
/// location's access mask less itself: work in the size of the output,
/// not a pair scan over every two events.
template <typename RelT>
RelT sameLocRelation(const BasicTargetExecution<RelT> &X) {
  std::vector<typename RelT::SetT> AtLoc(X.CoPerLoc.size(),
                                         RelT::emptySet(X.numEvents()));
  for (const TargetEvent &E : X.Events)
    if (E.isAccess()) {
      assert(E.Loc < AtLoc.size() && "access location out of range");
      bits::set(AtLoc[E.Loc], E.Id);
    }
  RelT Out(X.numEvents());
  for (const TargetEvent &A : X.Events)
    if (A.isAccess())
      bits::forEach(AtLoc[A.Loc], [&](unsigned B) {
        if (B != A.Id)
          Out.set(A.Id, B);
      });
  return Out;
}

/// po ; [F] ; po with endpoint classes \p Pred and \p Succ.
template <typename RelT>
RelT fenceEdges(const BasicTargetExecution<RelT> &X,
                const typename RelT::SetT &FenceMask,
                const typename RelT::SetT &Pred,
                const typename RelT::SetT &Succ) {
  return X.Po.restricted(Pred, FenceMask)
      .compose(X.Po.restricted(FenceMask, Succ));
}

} // namespace

template <typename RelT>
bool jsmm::isX86Consistent(const BasicTargetExecution<RelT> &X) {
  if (!targetScPerLocation(X) || !targetAtomicity(X))
    return false;
  Masks<RelT> M = Masks<RelT>::compute(X);
  typename RelT::SetT Access = M.Reads | M.Writes;
  // ppo: program order minus write->read pairs (the store buffer); RMWs are
  // locked and never relaxed.
  RelT Ppo = X.Po.restricted(Access, Access)
                 .subtracted(RelT::product(M.OnlyW, M.OnlyR, X.numEvents()));
  RelT Ghb = Ppo;
  Ghb.unionWith(fenceEdges(X, M.fence(X, TFence::MFence), Access, Access));
  Ghb.unionWith(X.externalPart(X.Rf));
  Ghb.unionWith(X.coherence());
  Ghb.unionWith(X.fromReads());
  return Ghb.isAcyclic();
}

template <typename RelT>
bool jsmm::isArmV8UniConsistent(const BasicTargetExecution<RelT> &X) {
  if (!targetScPerLocation(X) || !targetAtomicity(X))
    return false;
  Masks<RelT> M = Masks<RelT>::compute(X);
  RelT Obs = X.externalPart(X.Rf);
  Obs.unionWith(X.externalPart(X.coherence()));
  Obs.unionWith(X.externalPart(X.fromReads()));
  RelT Bob = X.Po.restricted(M.Acq, M.All);
  Bob.unionWith(X.Po.restricted(M.All, M.RelW));
  Bob.unionWith(X.Po.restricted(M.RelW, M.Acq));
  return Obs.unioned(Bob).isAcyclic();
}

template <typename RelT>
bool jsmm::isRiscVConsistent(const BasicTargetExecution<RelT> &X) {
  if (!targetScPerLocation(X) || !targetAtomicity(X))
    return false;
  Masks<RelT> M = Masks<RelT>::compute(X);
  typename RelT::SetT RW = M.Reads | M.Writes;
  // Same-address ppo: ordered when the second access is a store.
  RelT Ppo = X.poLoc().restricted(RW, M.Writes);
  Ppo.unionWith(fenceEdges(X, M.fence(X, TFence::FenceRWRW), RW, RW));
  Ppo.unionWith(fenceEdges(X, M.fence(X, TFence::FenceRWW), RW, M.Writes));
  Ppo.unionWith(fenceEdges(X, M.fence(X, TFence::FenceRRW), M.Reads, RW));
  Ppo.unionWith(X.Po.restricted(M.Acq, M.All));
  Ppo.unionWith(X.Po.restricted(M.All, M.RelW));
  Ppo.unionWith(X.Po.restricted(M.RelW, M.Acq));
  RelT Gmo = Ppo;
  Gmo.unionWith(X.externalPart(X.Rf));
  Gmo.unionWith(X.externalPart(X.coherence()));
  Gmo.unionWith(X.externalPart(X.fromReads()));
  return Gmo.isAcyclic();
}

namespace {

/// The herding-cats Power model, parameterised by the full-fence flavour
/// (Power sync vs ARMv7 dmb).
template <typename RelT>
bool powerStyleConsistent(const BasicTargetExecution<RelT> &X,
                          TFence FullFence, bool HasLwSync) {
  if (!targetScPerLocation(X) || !targetAtomicity(X))
    return false;
  Masks<RelT> M = Masks<RelT>::compute(X);
  typename RelT::SetT Access = M.Reads | M.Writes;
  unsigned N = X.numEvents();

  RelT Ffence = fenceEdges(X, M.fence(X, FullFence), Access, Access);
  RelT Lw(N);
  if (HasLwSync) {
    Lw = fenceEdges(X, M.fence(X, TFence::LwSync), Access, Access)
             .subtracted(RelT::product(M.OnlyW, M.OnlyR, N));
  }
  // ctrl+isync after a load orders that load before everything po-later.
  RelT Cisync =
      fenceEdges(X, M.fence(X, TFence::CtrlIsync), M.Reads, Access);

  RelT Rfe = X.externalPart(X.Rf);
  RelT Co = X.coherence();
  RelT Fr = X.fromReads();
  RelT Fre = X.externalPart(Fr);

  RelT Ppo = Cisync;
  RelT Hb = Ppo.unioned(Ffence).unioned(Lw).unioned(Rfe);
  if (!Hb.isAcyclic())
    return false; // NO THIN AIR

  RelT HbStar = Hb.reflexiveTransitiveClosure();
  RelT FencesRel = Ffence.unioned(Lw);
  RelT PropBase = FencesRel.unioned(Rfe.compose(FencesRel)).compose(HbStar);
  RelT Com = X.Rf.unioned(Co).unioned(Fr);
  RelT Prop =
      PropBase.restricted(M.Writes, M.Writes)
          .unioned(Com.reflexiveTransitiveClosure()
                       .compose(PropBase.reflexiveTransitiveClosure())
                       .compose(Ffence)
                       .compose(HbStar));
  // OBSERVATION
  if (!Fre.compose(Prop).compose(HbStar).isIrreflexive())
    return false;
  // PROPAGATION
  return Co.unioned(Prop).isAcyclic();
}

} // namespace

template <typename RelT>
bool jsmm::isPowerConsistent(const BasicTargetExecution<RelT> &X) {
  return powerStyleConsistent(X, TFence::Sync, /*HasLwSync=*/true);
}

template <typename RelT>
bool jsmm::isArmV7Consistent(const BasicTargetExecution<RelT> &X) {
  return powerStyleConsistent(X, TFence::DmbV7, /*HasLwSync=*/false);
}

template <typename RelT>
bool jsmm::isImmLiteConsistent(const BasicTargetExecution<RelT> &X) {
  if (!targetAtomicity(X))
    return false;
  Masks<RelT> M = Masks<RelT>::compute(X);
  unsigned N = X.numEvents();
  RelT Sb = X.Po;
  RelT Sw(N);
  X.Rf.forEachPair([&](unsigned W, unsigned R) {
    if (X.Events[W].Sc && X.Events[R].Sc)
      Sw.set(W, R);
  });
  RelT Hb = Sb.unioned(Sw).transitiveClosure();
  RelT Co = X.coherence();
  RelT Fr = X.fromReads();
  RelT Eco = X.Rf.unioned(Co).unioned(Fr).transitiveClosure();
  // COHERENCE
  if (!Hb.isIrreflexive() || !Hb.compose(Eco).isIrreflexive())
    return false;
  // NO THIN AIR
  if (!Sb.unioned(X.Rf).isAcyclic())
    return false;
  // SC (RC11-style partial SC order)
  RelT SameLoc = sameLocRelation(X);
  RelT Scb = Sb.unioned(Sb.compose(Hb).compose(Sb))
                 .unioned(Hb.intersected(SameLoc))
                 .unioned(Co)
                 .unioned(Fr);
  RelT Psc = Scb.restricted(M.Sc, M.Sc);
  return Psc.isAcyclic();
}

// Explicit instantiation for both capacity tiers.
#define JSMM_INSTANTIATE_TARGET(RelT)                                        \
  template class jsmm::BasicTargetExecution<RelT>;                           \
  template bool jsmm::isX86Consistent<RelT>(                                 \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::isArmV8UniConsistent<RelT>(                            \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::isRiscVConsistent<RelT>(                               \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::isPowerConsistent<RelT>(                               \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::isArmV7Consistent<RelT>(                               \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::isImmLiteConsistent<RelT>(                             \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::targetScPerLocation<RelT>(                             \
      const BasicTargetExecution<RelT> &);                                   \
  template bool jsmm::targetAtomicity<RelT>(                                 \
      const BasicTargetExecution<RelT> &);

JSMM_INSTANTIATE_TARGET(jsmm::Relation)
JSMM_INSTANTIATE_TARGET(jsmm::DynRelation)
#undef JSMM_INSTANTIATE_TARGET
