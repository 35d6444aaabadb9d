//===- core/CandidateExecution.h - JS candidate executions ----------------===//
///
/// \file
/// Candidate executions, transcribed from Fig. 3 of Watt et al. (PLDI 2020).
/// A candidate execution packages the events generated by the thread-local
/// semantics with the relations that justify the (arbitrarily chosen) read
/// values:
///
///   - sequenced-before (sb): intra-thread control-flow order;
///   - additional-synchronizes-with (asw): strong inter-thread ordering
///     implied by the thread-local semantics (thread spawn/join,
///     Atomics.wait/notify critical sections);
///   - reads-byte-from (rbf): a byte-indexed justification relating every
///     byte of every read to a write of that byte;
///   - total-order (tot): a strict total order over all events.
///
/// The derived relations reads-from (rf), synchronizes-with (sw) and
/// happens-before (hb) are computed on demand, in both the specification
/// form (sw with the Init special case) and the simplified form proposed by
/// the paper (§3.2).
///
/// Its relations are support/Relation.h's one relation type, so the same
/// derivation pipeline serves programs of every size up to
/// Relation::MaxSize events.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_CORE_CANDIDATEEXECUTION_H
#define JSMM_CORE_CANDIDATEEXECUTION_H

#include "core/Event.h"
#include "support/Relation.h"

#include <string>
#include <vector>

namespace jsmm {

/// One byte-indexed reads-byte-from edge: event \c Reader reads the value of
/// byte location \c Loc (an absolute offset within the events' shared block)
/// from event \c Writer.
struct RbfEdge {
  unsigned Loc = 0;
  EventId Writer = 0;
  EventId Reader = 0;

  bool operator==(const RbfEdge &O) const {
    return Loc == O.Loc && Writer == O.Writer && Reader == O.Reader;
  }
};

/// Which definition of synchronizes-with to use.
enum class SwDefKind : uint8_t {
  /// The 10th-edition definition, with the special case synchronizing a
  /// SeqCst read with an Init write when the read reads only Init bytes.
  SpecWithInitCase,
  /// The simplified definition of §3.2: same-range SeqCst write/read pairs
  /// only (the Init case is subsumed by the final SC rule).
  Simplified,
};

/// Whether the rf edge \p W → \p R is a synchronizes-with edge under
/// \p Def (asw aside). \p ReadsOnlyInit: every writer R reads from is an
/// Init event (the specification's Init case).
bool synchronizes(const Event &W, const Event &R, SwDefKind Def,
                  bool ReadsOnlyInit);

/// The derived relations (rf, sw, hb) of a candidate execution under one
/// synchronizes-with definition, always computed together because hb is
/// derived from sw and sw from rf.
struct DerivedTriple {
  Relation Rf;
  Relation Sw;
  Relation Hb;
};

/// A JavaScript candidate execution (Fig. 3).
class CandidateExecution {
public:

  std::vector<Event> Events;
  Relation Sb;  ///< sequenced-before
  Relation Asw; ///< additional-synchronizes-with
  std::vector<RbfEdge> Rbf;
  Relation Tot; ///< total-order witness; may be left empty (count()==0)
            ///< when deciding "exists a tot" questions

  CandidateExecution() = default;

  /// Creates an execution with the given events and empty relations sized
  /// to match.
  explicit CandidateExecution(std::vector<Event> Evs);

  unsigned numEvents() const {
    return static_cast<unsigned>(Events.size());
  }

  /// \returns the set of all event ids.
  BitSet allEventsMask() const { return Relation::fullSet(numEvents()); }

  /// \returns the set of events satisfying \p Pred.
  template <typename PredT> BitSet eventsWhere(PredT Pred) const {
    BitSet Mask = Relation::emptySet(numEvents());
    for (const Event &E : Events)
      if (Pred(E))
        bits::set(Mask, E.Id);
    return Mask;
  }

  /// Derived relation rf (write on the left): projects the byte index away
  /// from reads-byte-from.
  Relation readsFrom() const;

  /// Derived relation sw under the chosen definition, including asw.
  /// \p Rf must be this execution's readsFrom().
  Relation synchronizesWith(SwDefKind Def, const Relation &Rf) const;

  /// Derived relation hb = (sb ∪ sw ∪ {<A,B> | A.ord=Init ∧ A≠B ∧
  /// overlap(A,B)})+.
  Relation happensBefore(SwDefKind Def) const;

  /// hb computed from an already-derived sw (avoids recomputation in hot
  /// loops).
  Relation happensBeforeFromSw(const Relation &Sw) const;

  /// The derived relations under \p Def, computed from sb, asw and rbf.
  /// The engine's JavaScript walk keeps them along the walk instead.
  DerivedTriple derived(SwDefKind Def) const;

  /// Checks the well-formedness conditions on candidate executions: sb is a
  /// strict total order per thread over that thread's events; asw has no
  /// self-edges; rbf justifies exactly the bytes each read reads, from
  /// writes of those bytes with matching values; tot (when present) is a
  /// strict total order on all events.
  ///
  /// \param Err if non-null, receives a description of the first violation.
  bool checkWellFormed(std::string *Err = nullptr) const;

  /// \returns true if tot has been provided (non-empty universe check).
  bool hasTot() const { return Tot.size() == numEvents() && !Tot.empty(); }

  /// \returns a multi-line rendering of events and relations.
  std::string toString() const;
};

} // namespace jsmm

#endif // JSMM_CORE_CANDIDATEEXECUTION_H
