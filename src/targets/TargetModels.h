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
//===----------------------------------------------------------------------===//

#ifndef JSMM_TARGETS_TARGETMODELS_H
#define JSMM_TARGETS_TARGETMODELS_H

#include "core/Event.h"
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
class TargetExecution {
public:

  std::vector<TargetEvent> Events;
  Relation Po;
  Relation Rf;
  std::vector<std::vector<EventId>> CoPerLoc;

  TargetExecution() = default;
  explicit TargetExecution(std::vector<TargetEvent> Evs, unsigned NumLocs);

  unsigned numEvents() const {
    return static_cast<unsigned>(Events.size());
  }
  BitSet allEventsMask() const { return Relation::fullSet(numEvents()); }
  template <typename PredT> BitSet eventsWhere(PredT Pred) const {
    BitSet Mask = Relation::emptySet(numEvents());
    for (const TargetEvent &E : Events)
      if (Pred(E))
        bits::set(Mask, E.Id);
    return Mask;
  }

  Relation coherence() const;
  Relation fromReads() const;
  Relation poLoc() const;
  Relation externalPart(const Relation &R) const;

  std::string toString() const;
};

/// The consistency predicate of \p Arch: the shared axioms
/// (SC-per-location on all but ImmLite, atomicity on all) ∧ the
/// architecture's final axiom, everything derived from \p X itself.
bool isTargetConsistent(const TargetExecution &X, TargetArch Arch);

/// isTargetConsistent for each architecture.
bool isX86Consistent(const TargetExecution &X);
bool isArmV8UniConsistent(const TargetExecution &X);
bool isRiscVConsistent(const TargetExecution &X);
bool isPowerConsistent(const TargetExecution &X);
bool isArmV7Consistent(const TargetExecution &X);
bool isImmLiteConsistent(const TargetExecution &X);

/// Shared axioms, exposed for tests.
bool targetScPerLocation(const TargetExecution &X);
bool targetAtomicity(const TargetExecution &X);

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
TargetExecution accessView(const TargetExecution &X,
                           std::vector<EventId> &IdOf);

/// What an architecture's final axiom derives from po and the event kinds
/// alone. None of it depends on rf or co, so a walk builds it once per
/// base (targetStatics) and reuses it at every candidate of that base.
/// Every relation here relates accesses only (a fence contributes the
/// edges it orders, never an edge of its own), so the statics carry over
/// to the access view unchanged. Relations a backend does not use stay
/// empty (size 0).
struct TargetStatics {
  TargetArch Arch = TargetArch::ImmLite;
  /// x86: ppo ∪ mfence edges. ARMv8: bob. RISC-V: ppo. Power and ARMv7:
  /// the ctrl+isync edges.
  Relation Ppo;
  /// Power and ARMv7: the full-fence edges; Power: the lwsync edges, left
  /// empty when the execution has no lwsync.
  Relation Ffence, Lw;
  /// ImmLite: distinct accesses to one location.
  Relation SameLoc;
  BitSet Writes, Sc;
};

/// Builds the statics of \p Arch over \p X's events and po (rf and co are
/// not read), numbered as \p X is, or with \p IdOf as accessView's map
/// of \p X, numbered as the view is.
TargetStatics
targetStatics(const TargetExecution &X, TargetArch Arch,
              const std::vector<EventId> *IdOf = nullptr);

/// The walk's monotone admission of a partial candidate: po-loc ∪ rf must
/// be acyclic. A cycle there violates SC-per-location (x86, ARMv8, ARMv7,
/// Power, RISC-V) and ImmLite's NO-THIN-AIR (sb ∪ rf acyclic) for every
/// coherence completion, and both relations only grow as reads are
/// justified.
bool targetAdmits(const Relation &PoLoc, const Relation &Rf);

/// The shared axioms over precomputed relations: SC-per-location
/// (po-loc ∪ rf ∪ co ∪ fr acyclic) and atomicity (fr ; co irreflexive:
/// no write coherence-intervenes inside an RMW). Neither reads a fence,
/// so they give the same answer on every compiled form of one program.
bool targetScPerLocation(const Relation &PoLoc, const Relation &Rf,
                         const Relation &Co, const Relation &Fr);
bool targetAtomicity(const Relation &Co, const Relation &Fr);

/// A candidate as the axioms read it: an execution with rf and co chosen,
/// its coherence and from-reads, and the rf-dependent relations several
/// final axioms share, each built on first use. A walk makes one per leaf
/// and hands it to every column's final axiom.
class TargetCandidate {
public:
  explicit TargetCandidate(const TargetExecution &X)
      : X(X), Co(X.coherence()), Fr(X.fromReads()) {}

  const TargetExecution &X;
  const Relation Co;
  const Relation Fr;

  /// External rf and fr.
  const Relation &rfe() const;
  const Relation &fre() const;
  /// (rf ∪ co ∪ fr) restricted to pairs on different threads.
  const Relation &comExt() const;
  /// (rf ∪ co ∪ fr)+ and its reflexive closure.
  const Relation &eco() const;
  const Relation &comStar() const;

private:
  mutable std::optional<Relation> Rfe, Fre, ComExt, Eco, ComStar;
};

/// The architecture's own axiom over the candidate \p C, given its
/// statics (numbered as C.X is). It reads of C.X only rf, po and the event
/// threads, so on the access view of a compiled form, with the statics
/// built over that view, it gives the form's own verdict.
bool targetFinalAxiom(const TargetCandidate &C, const TargetStatics &S);

} // namespace jsmm

#endif // JSMM_TARGETS_TARGETMODELS_H
