//===- targets/TargetModels.h - Uni-size target architecture models --------===//
///
/// \file
/// Event-level axiomatic models for the Thm 6.3 target architectures:
/// x86-TSO, Power, ARMv7, RISC-V (RVWMO) and uni-size ARMv8, plus ImmLite —
/// a trimmed stand-in for the Intermediate Memory Model covering exactly
/// the access modes uni-size JavaScript emits (relaxed and SC; see
/// DESIGN.md for the substitution rationale).
///
/// RMWs are modelled as single events that both read and write, in the
/// herd style for AMO-like operations; atomicity is the usual
/// "no write intervenes coherence-wise inside the RMW" axiom. Where a
/// model had to be simplified, the simplification is *weakening* (more
/// behaviours allowed), which is the conservative direction for the
/// compilation claims checked on top of these models.
///
/// Executions and predicates are generic over the relation flavour
/// (Relation for the ≤64-event fast tier, DynRelation beyond), so one
/// model definition serves both capacity tiers with identical verdicts.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TARGETS_TARGETMODELS_H
#define JSMM_TARGETS_TARGETMODELS_H

#include "core/Event.h"
#include "support/DynRelation.h"
#include "support/Relation.h"

#include <optional>
#include <string>
#include <vector>

namespace jsmm {

/// The Thm 6.3 target architectures.
enum class TargetArch : uint8_t {
  X86,
  ArmV8,
  ArmV7,
  Power,
  RiscV,
  ImmLite,
};

/// Kind of a target event.
enum class TKind : uint8_t { Read, Write, Rmw, Fence };

/// Fence flavours across all targets.
enum class TFence : uint8_t {
  None,
  MFence,    ///< x86
  Sync,      ///< Power sync / hwsync
  LwSync,    ///< Power lwsync
  CtrlIsync, ///< Power ctrl+isync after a load (ARMv7: ctrl+isb)
  DmbV7,     ///< ARMv7 dmb (full)
  FenceRWRW, ///< RISC-V fence rw,rw
  FenceRWW,  ///< RISC-V fence rw,w
  FenceRRW,  ///< RISC-V fence r,rw
};

/// An event of a target-architecture execution.
struct TargetEvent {
  EventId Id = 0;
  int Thread = -1;
  TKind Kind = TKind::Read;
  unsigned Loc = 0;
  uint64_t ReadVal = 0;
  uint64_t WriteVal = 0;
  bool Acq = false;   ///< acquire annotation (ARMv8 ldar, RISC-V .aq)
  bool Rel = false;   ///< release annotation (ARMv8 stlr, RISC-V .rl)
  bool Sc = false;    ///< SC access (ImmLite)
  TFence Fence = TFence::None;
  bool IsInit = false;
  int SourceIdx = -1; ///< index of the source uni-size access, or -1

  bool isRead() const { return Kind == TKind::Read || Kind == TKind::Rmw; }
  bool isWrite() const { return Kind == TKind::Write || Kind == TKind::Rmw; }
  bool isAccess() const { return Kind != TKind::Fence; }

  std::string toString() const;
};

/// A target execution: po, rf (writer->reader) and one coherence order per
/// location (Init first).
template <typename RelT> class BasicTargetExecution {
public:
  using Rel = RelT;
  using SetT = typename RelT::SetT;

  std::vector<TargetEvent> Events;
  RelT Po;
  RelT Rf;
  std::vector<std::vector<EventId>> CoPerLoc;

  BasicTargetExecution() = default;
  explicit BasicTargetExecution(std::vector<TargetEvent> Evs,
                                unsigned NumLocs);

  unsigned numEvents() const {
    return static_cast<unsigned>(Events.size());
  }
  SetT allEventsMask() const { return RelT::fullSet(numEvents()); }
  template <typename PredT> SetT eventsWhere(PredT Pred) const {
    SetT Mask = RelT::emptySet(numEvents());
    for (const TargetEvent &E : Events)
      if (Pred(E))
        bits::set(Mask, E.Id);
    return Mask;
  }

  RelT coherence() const;
  RelT fromReads() const;
  RelT poLoc() const;
  RelT externalPart(const RelT &R) const;

  std::string toString() const;
};

/// The allocation-free ≤64-event tier.
using TargetExecution = BasicTargetExecution<Relation>;
/// The dynamic tier for compiled programs beyond 64 events.
using DynTargetExecution = BasicTargetExecution<DynRelation>;

/// The consistency predicate of \p Arch: the shared axioms
/// (SC-per-location on all but ImmLite, atomicity on all) ∧ the
/// architecture's final axiom, everything derived from \p X itself.
/// Generic over the relation flavour (both capacity tiers share one model
/// definition).
template <typename RelT>
bool isTargetConsistent(const BasicTargetExecution<RelT> &X, TargetArch Arch);

/// isTargetConsistent for each architecture.
template <typename RelT>
bool isX86Consistent(const BasicTargetExecution<RelT> &X);
template <typename RelT>
bool isArmV8UniConsistent(const BasicTargetExecution<RelT> &X);
template <typename RelT>
bool isRiscVConsistent(const BasicTargetExecution<RelT> &X);
template <typename RelT>
bool isPowerConsistent(const BasicTargetExecution<RelT> &X);
template <typename RelT>
bool isArmV7Consistent(const BasicTargetExecution<RelT> &X);
template <typename RelT>
bool isImmLiteConsistent(const BasicTargetExecution<RelT> &X);

/// Shared axioms, exposed for tests.
template <typename RelT>
bool targetScPerLocation(const BasicTargetExecution<RelT> &X);
template <typename RelT>
bool targetAtomicity(const BasicTargetExecution<RelT> &X);

//===----------------------------------------------------------------------===//
// The split check: what the engine's target walk evaluates per base and
// per candidate.
//===----------------------------------------------------------------------===//

/// \p X's accesses alone: its init writes and accesses in id order,
/// renumbered from 0 (fences dropped), with po, rf and the coherence
/// orders restricted to them. \p IdOf receives each view id's event id in
/// \p X. Every compiled form of one uni-size program has the same view up
/// to the access flags (compileUni only adds fences), which is what lets
/// one walk serve all of them.
template <typename RelT>
BasicTargetExecution<RelT> accessView(const BasicTargetExecution<RelT> &X,
                                      std::vector<EventId> &IdOf);

/// What an architecture's final axiom derives from po and the event kinds
/// alone. None of it depends on rf or co, so a walk builds it once per
/// base (targetStatics) and reuses it at every candidate of that base.
/// Every relation here relates accesses only (a fence contributes the
/// edges it orders, never an edge of its own), so the statics carry over
/// to the access view unchanged. Relations a backend does not use stay
/// empty (size 0).
template <typename RelT> struct TargetStatics {
  using SetT = typename RelT::SetT;
  TargetArch Arch = TargetArch::ImmLite;
  /// x86: ppo ∪ mfence edges. ARMv8: bob. RISC-V: ppo. Power and ARMv7:
  /// the ctrl+isync edges.
  RelT Ppo;
  /// Power and ARMv7: the full-fence edges; Power: the lwsync edges, left
  /// empty when the execution has no lwsync.
  RelT Ffence, Lw;
  /// ImmLite: distinct accesses to one location.
  RelT SameLoc;
  SetT Writes, Sc;
};

/// Builds the statics of \p Arch over \p X's events and po (rf and co are
/// not read), numbered as \p X is, or with \p IdOf as accessView's map
/// of \p X, numbered as the view is.
template <typename RelT>
TargetStatics<RelT>
targetStatics(const BasicTargetExecution<RelT> &X, TargetArch Arch,
              const std::vector<EventId> *IdOf = nullptr);

/// The walk's monotone admission of a partial candidate: po-loc ∪ rf must
/// be acyclic. A cycle there violates SC-per-location (x86, ARMv8, ARMv7,
/// Power, RISC-V) and ImmLite's NO-THIN-AIR (sb ∪ rf acyclic) for every
/// coherence completion, and both relations only grow as reads are
/// justified.
template <typename RelT>
bool targetAdmits(const RelT &PoLoc, const RelT &Rf);

/// The shared axioms over precomputed relations: SC-per-location
/// (po-loc ∪ rf ∪ co ∪ fr acyclic) and atomicity (fr ; co irreflexive:
/// no write coherence-intervenes inside an RMW). Neither reads a fence,
/// so they give the same answer on every compiled form of one program.
template <typename RelT>
bool targetScPerLocation(const RelT &PoLoc, const RelT &Rf, const RelT &Co,
                         const RelT &Fr);
template <typename RelT> bool targetAtomicity(const RelT &Co, const RelT &Fr);

/// A candidate as the axioms read it: an execution with rf and co chosen,
/// its coherence and from-reads, and the rf-dependent relations several
/// final axioms share, each built on first use. A walk makes one per leaf
/// and hands it to every column's final axiom.
template <typename RelT> class TargetCandidate {
public:
  explicit TargetCandidate(const BasicTargetExecution<RelT> &X)
      : X(X), Co(X.coherence()), Fr(X.fromReads()) {}

  const BasicTargetExecution<RelT> &X;
  const RelT Co;
  const RelT Fr;

  /// External rf and fr.
  const RelT &rfe() const;
  const RelT &fre() const;
  /// (rf ∪ co ∪ fr) restricted to pairs on different threads.
  const RelT &comExt() const;
  /// (rf ∪ co ∪ fr)+ and its reflexive closure.
  const RelT &eco() const;
  const RelT &comStar() const;

private:
  mutable std::optional<RelT> Rfe, Fre, ComExt, Eco, ComStar;
};

/// The architecture's own axiom over the candidate \p C, given its
/// statics (numbered as C.X is). It reads of C.X only rf, po and the event
/// threads, so on the access view of a compiled form, with the statics
/// built over that view, it gives the form's own verdict.
template <typename RelT>
bool targetFinalAxiom(const TargetCandidate<RelT> &C,
                      const TargetStatics<RelT> &S);

} // namespace jsmm

#endif // JSMM_TARGETS_TARGETMODELS_H
