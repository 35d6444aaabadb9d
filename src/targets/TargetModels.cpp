//===- targets/TargetModels.cpp -------------------------------------------===//

#include "targets/TargetModels.h"

#include <algorithm>
#include <array>

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

TargetStatics jsmm::targetStatics(const std::vector<TargetEvent> &Seq,
                                  unsigned N, TargetArch Arch) {
  TargetStatics S;
  S.Arch = Arch;
  BitSet Reads = Relation::emptySet(N), OnlyR = Reads, Acq = Reads,
         RelW = Reads;
  S.Writes = S.Sc = Reads;
  bool HasLwSync = false;
  unsigned NumLocs = 0;
  for (const TargetEvent &E : Seq) {
    if (!E.isAccess()) {
      HasLwSync = HasLwSync || E.Fence == TFence::LwSync;
      continue;
    }
    NumLocs = std::max(NumLocs, E.Loc + 1);
    if (E.isRead())
      bits::set(Reads, E.Id);
    if (E.isWrite())
      bits::set(S.Writes, E.Id);
    if (E.Kind == TKind::Read)
      bits::set(OnlyR, E.Id);
    if (E.Acq && E.isRead())
      bits::set(Acq, E.Id);
    if (E.Rel && E.isWrite())
      bits::set(RelW, E.Id);
    if (E.Sc)
      bits::set(S.Sc, E.Id);
  }
  // RISC-V and ImmLite: the accesses of each location.
  std::vector<BitSet> AtLoc;
  if (Arch == TargetArch::RiscV || Arch == TargetArch::ImmLite) {
    AtLoc.assign(NumLocs, Relation::emptySet(N));
    for (const TargetEvent &E : Seq)
      if (E.isAccess())
        bits::set(AtLoc[E.Loc], E.Id);
  }
  if (Arch == TargetArch::ImmLite) {
    // Distinct accesses to one location: each access's row is its
    // location's access mask less itself.
    S.SameLoc = Relation(N);
    for (const TargetEvent &E : Seq)
      if (E.isAccess()) {
        BitSet Row = AtLoc[E.Loc];
        bits::clear(Row, E.Id);
        S.SameLoc.assignRow(E.Id, Row);
      }
    return S;
  }
  S.Ppo = Relation(N);
  if (Arch == TargetArch::Power || Arch == TargetArch::ArmV7)
    S.Ffence = Relation(N);
  if (Arch == TargetArch::Power && HasLwSync)
    S.Lw = Relation(N);
  // One backward pass per thread: Later holds the thread's accesses
  // po-after the current event, and After[F] those po-after the nearest
  // fence of kind F that follows it. Each access's row of every relation
  // is a few set operations on those: work in the size of the output.
  BitSet Later;
  std::array<BitSet, static_cast<size_t>(TFence::FenceRRW) + 1> After;
  auto AfterFence = [&](TFence F) -> const BitSet & {
    return After[static_cast<size_t>(F)];
  };
  for (size_t I = Seq.size(); I-- > 0;) {
    const TargetEvent &E = Seq[I];
    if (E.Thread < 0)
      continue;
    if (I + 1 == Seq.size() || Seq[I + 1].Thread != E.Thread) {
      Later = Relation::emptySet(N);
      After.fill(Later);
    }
    if (!E.isAccess()) {
      After[static_cast<size_t>(E.Fence)] = Later;
      continue;
    }
    // Release/acquire ordering: po from an acquire read, po to a release
    // write, and release write to acquire read. (An acquire's po-edge into
    // a fence reached a release write only through that fence's own
    // po-edge, and po is transitive: both ends are ordered directly.)
    BitSet AcqRel = Later & RelW;
    if (bits::test(Acq, E.Id))
      AcqRel |= Later;
    if (bits::test(RelW, E.Id))
      AcqRel |= Later & Acq;
    bool OnlyW = E.Kind == TKind::Write;
    switch (Arch) {
    case TargetArch::X86:
      // ppo: program order minus write->read pairs (the store buffer);
      // RMWs are locked and never relaxed. Then the mfence edges.
      S.Ppo.assignRow(E.Id, (OnlyW ? Later & ~OnlyR : Later) |
                                AfterFence(TFence::MFence));
      break;
    case TargetArch::ArmV8:
      S.Ppo.assignRow(E.Id, AcqRel);
      break;
    case TargetArch::RiscV: {
      // Same-address ppo: ordered when the second access is a store.
      BitSet Row = Later & AtLoc[E.Loc] & S.Writes;
      Row |= AfterFence(TFence::FenceRWRW);
      Row |= AfterFence(TFence::FenceRWW) & S.Writes;
      if (E.isRead())
        Row |= AfterFence(TFence::FenceRRW);
      S.Ppo.assignRow(E.Id, Row | AcqRel);
      break;
    }
    case TargetArch::Power:
    case TargetArch::ArmV7: {
      bool Power = Arch == TargetArch::Power;
      S.Ffence.assignRow(E.Id,
                         AfterFence(Power ? TFence::Sync : TFence::DmbV7));
      const BitSet &Lw = AfterFence(TFence::LwSync);
      if (S.Lw.size())
        S.Lw.assignRow(E.Id, OnlyW ? Lw & ~OnlyR : Lw);
      // ctrl+isync after a load orders that load before everything
      // po-later.
      if (E.isRead())
        S.Ppo.assignRow(E.Id, AfterFence(TFence::CtrlIsync));
      break;
    }
    case TargetArch::ImmLite:
      break;
    }
    bits::set(Later, E.Id);
  }
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
  // X's events as targetStatics reads them: the thread-less ones, then
  // each thread's in program order (po is a strict total order on each
  // thread, so the earlier event has more po-successors).
  std::vector<TargetEvent> Seq = X.Events;
  std::vector<unsigned> Succs(X.numEvents());
  for (const TargetEvent &E : X.Events)
    Succs[E.Id] = bits::count(X.Po.row(E.Id));
  std::stable_sort(Seq.begin(), Seq.end(),
                   [&](const TargetEvent &A, const TargetEvent &B) {
                     return A.Thread != B.Thread ? A.Thread < B.Thread
                                                 : Succs[A.Id] > Succs[B.Id];
                   });
  TargetStatics S = targetStatics(Seq, X.numEvents(), Arch);
  TargetCandidate C(X);
  if (Arch != TargetArch::ImmLite &&
      !targetScPerLocation(X.poLoc(), X.Rf, C.Co, C.Fr))
    return false;
  return targetAtomicity(C.Co, C.Fr) && targetFinalAxiom(C, S);
}
