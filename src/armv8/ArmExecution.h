//===- armv8/ArmExecution.h - ARMv8 candidate executions -------------------===//
///
/// \file
/// Candidate executions of the mixed-size ARMv8 axiomatic model (§4).
/// Mirrors the JavaScript structure: byte-indexed reads-byte-from, plus a
/// per-byte coherence order and the dependency relations (addr, data, ctrl)
/// and exclusive-pair relation needed by the architectural model.
///
/// Coherence is represented per *granule* — a maximal run of consecutive
/// bytes with an identical set of writers — with one write order per
/// granule. Writes with identical footprints are therefore coherence-ordered
/// consistently across their bytes (as in Flat, whose storage is a single
/// flat memory), while partially overlapping writes may be ordered
/// differently on different granules: the "weaker behaviour" choice the
/// paper makes where Flat's mixed-size semantics is unsettled.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ARMV8_ARMEXECUTION_H
#define JSMM_ARMV8_ARMEXECUTION_H

#include "armv8/ArmEvent.h"
#include "core/CandidateExecution.h"
#include "support/Relation.h"

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace jsmm {

/// A coherence granule: byte range [Begin, End) of \c Block, with the
/// sequence of writes to it (Init first when present).
struct CoGranule {
  unsigned Block = 0;
  unsigned Begin = 0;
  unsigned End = 0;
  std::vector<EventId> Order; ///< coherence order of the granule's writers
};

/// The event cap of the mixed-size ARMv8 model, below the relation cap:
/// computeGranules keeps each byte's writers as a one-word mask, and the
/// coherence completions are a factorial walk per rbf leaf.
inline constexpr unsigned ArmMaxEvents = 64;

/// An ARMv8 candidate execution.
class ArmExecution {
public:
  std::vector<ArmEvent> Events;
  Relation Po;      ///< program order (strict total order per thread)
  std::vector<RbfEdge> Rbf;
  std::vector<CoGranule> Co;
  Relation AddrDep; ///< address dependencies: read -> dependent access
  Relation DataDep; ///< data dependencies: read -> dependent write
  Relation CtrlDep; ///< control dependencies: read -> po-later events
  Relation Rmw;     ///< successful exclusive pairs: read -> paired write

  ArmExecution() = default;
  explicit ArmExecution(std::vector<ArmEvent> Evs);

  unsigned numEvents() const {
    return static_cast<unsigned>(Events.size());
  }
  BitSet allEventsMask() const { return Relation::fullSet(numEvents()); }
  template <typename PredT> BitSet eventsWhere(PredT Pred) const {
    BitSet Mask(numEvents());
    for (const ArmEvent &E : Events)
      if (Pred(E))
        bits::set(Mask, E.Id);
    return Mask;
  }

  /// Computes the coherence granules for the execution's writes and seeds
  /// each granule's order with Init first; non-Init orders must then be
  /// chosen (see ArmEnumerator) or provided by tests.
  std::vector<CoGranule> computeGranules() const;

  /// Derived event-level relations.
  Relation readsFrom() const; ///< rf: byte index projected away
  Relation coherence() const; ///< co: union of all granule orders
  /// fr: byte-wise from-reads, projected to events. fr(R,W') iff for some
  /// byte the read reads a write co-before W' on that byte. Every rbf
  /// writer must appear in its granule order (i.e. co is complete).
  Relation fromReads() const;

  /// As fromReads(), but tolerating partially filled granule orders (e.g.
  /// only the forced Init prefix): rbf writers absent from their granule
  /// order contribute no edges, so the result under-approximates every
  /// completion's fr. Used by the co-prefix refutation.
  Relation fromReadsKnownCo() const;

  /// \returns pairs restricted to distinct threads (external) or the same
  /// thread (internal).
  Relation externalPart(const Relation &R) const;
  Relation internalPart(const Relation &R) const;

  /// Basic structural well-formedness (po shape, rbf byte coverage and
  /// value agreement, granule orders total on their writers, exclusive
  /// pairs well shaped).
  bool checkWellFormed(std::string *Err = nullptr) const;

  std::string toString() const;

private:
  Relation fromReadsImpl(bool WriterMustBePlaced) const;
};

/// Enumerates every completion of \p X's granule coherence orders (X.Co
/// must already be computed and Init-seeded, e.g. by computeGranules()):
/// for each granule, every permutation of the non-Init writes touching it
/// is appended after the seeded prefix. \p Visit is invoked once per
/// complete choice, with X.Co filled in; it returns false to stop the
/// enumeration. The seeded prefixes are restored before returning.
/// \returns false if stopped early. Shared by the engine's ArmJustifier,
/// Armv8Model::allowsForSomeCo and the bounded compilation check.
bool forEachCoherenceCompletion(ArmExecution &X,
                                const std::function<bool()> &Visit);

} // namespace jsmm

#endif // JSMM_ARMV8_ARMEXECUTION_H
