//===- unisize/UniExecution.h - The uni-size JavaScript model --------------===//
///
/// \file
/// The uni-size JavaScript model of §6.3 (Fig. 12): a standard
/// abstract-location axiomatic model obtained from the mixed-size model by
/// treating disjoint byte ranges as distinct locations. reads-byte-from
/// collapses to an ordinary reads-from with a functional inverse, the
/// Tear-Free Reads rule becomes trivially true and disappears, and range
/// comparisons become a same-location predicate.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_UNISIZE_UNIEXECUTION_H
#define JSMM_UNISIZE_UNIEXECUTION_H

#include "core/Event.h"
#include "solver/TotSolver.h"
#include "support/Relation.h"

#include <string>
#include <vector>

namespace jsmm {

/// An event of the uni-size model: one abstract location, whole values.
struct UniEvent {
  EventId Id = 0;
  int Thread = -1;
  Mode Ord = Mode::Unordered;
  unsigned Loc = 0;
  bool Reads = false;
  bool Writes = false;
  uint64_t ReadVal = 0;
  uint64_t WriteVal = 0;

  bool isRead() const { return Reads; }
  bool isWrite() const { return Writes; }
  bool isRMW() const { return Reads && Writes; }

  std::string toString() const;
};

/// A uni-size candidate execution: like Fig. 3 with reads-from instead of
/// reads-byte-from.
class UniExecution {
public:

  std::vector<UniEvent> Events;
  Relation Sb;
  Relation Asw;
  Relation Rf;  ///< writer -> reader; each read has exactly one writer
  Relation Tot;

  UniExecution() = default;
  explicit UniExecution(std::vector<UniEvent> Evs);

  unsigned numEvents() const {
    return static_cast<unsigned>(Events.size());
  }
  BitSet allEventsMask() const { return Relation::fullSet(numEvents()); }

  /// sw: same-location SeqCst write/read reads-from pairs, plus asw
  /// (the simplified definition; the uni-size model is derived from the
  /// revised mixed-size model).
  Relation synchronizesWith() const;
  /// hb = (sb ∪ sw ∪ {<I,B> | I is an Init on B's location})+.
  Relation happensBefore() const;

  bool checkWellFormed(std::string *Err = nullptr) const;
  std::string toString() const;
};

/// Validity of \p X (with its Tot) under the uni-size model (Fig. 12).
bool isUniValid(const UniExecution &X, std::string *WhyNot = nullptr);

/// Decides whether some tot makes \p X valid; fills \p TotOut if non-null.
/// The uni-size SC Atomics rule has the same betweenness shape as the
/// mixed-size one, so the question is posed to the given order solver (the
/// process default when omitted).
bool isUniValidForSomeTot(const UniExecution &X, Relation *TotOut,
                          const TotSolver &Solver);
bool isUniValidForSomeTot(const UniExecution &X, Relation *TotOut = nullptr);

/// Constructors for tests and the reduction.
UniEvent makeUniWrite(EventId Id, int Thread, Mode Ord, unsigned Loc,
                      uint64_t Value);
UniEvent makeUniRead(EventId Id, int Thread, Mode Ord, unsigned Loc,
                     uint64_t Value);
UniEvent makeUniRMW(EventId Id, int Thread, unsigned Loc, uint64_t ReadVal,
                    uint64_t WriteVal);
UniEvent makeUniInit(EventId Id, unsigned Loc);

} // namespace jsmm

#endif // JSMM_UNISIZE_UNIEXECUTION_H
