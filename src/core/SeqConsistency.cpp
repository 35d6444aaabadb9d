//===- core/SeqConsistency.cpp --------------------------------------------===//

#include "core/SeqConsistency.h"

#include <map>

using namespace jsmm;

namespace {

/// Backtracking interleaver: places one event at a time (respecting
/// sb ∪ asw ∪ Init-first), maintaining a last-writer map per byte, and
/// prunes the moment a placed read disagrees with the execution's rbf.
///
/// An enabled event whose reads match memory and whose written bytes no
/// other unplaced event reads is placed at once, without branching. This
/// is complete by an exchange argument: in any successful completion that
/// places such an event E later, no event placed before E writes a byte E
/// reads (the last writer of that byte would change and E's read would
/// fail) or reads a byte E writes, so moving E to the front changes no
/// read. Writers nobody reads, such as filler stores, then cost one step
/// each instead of a factor in the number of interleavings.
class Interleaver {
public:
  explicit Interleaver(const CandidateExecution &CE) : CE(CE) {
    unsigned N = CE.numEvents();
    Order = CE.Sb.unioned(CE.Asw);
    // Init events (one per buffer) come before every other event in any
    // sequential interleaving; among themselves they are unordered.
    for (const Event &E : CE.Events)
      if (E.Ord == Mode::Init)
        for (unsigned B = 0; B < N; ++B)
          if (CE.Events[B].Ord != Mode::Init)
            Order.set(E.Id, B);
    for (unsigned B = 0; B < N; ++B)
      Preds.push_back(Order.column(B));
    ReadersOfWrites = Relation(N);
    for (const Event &W : CE.Events)
      for (const Event &R : CE.Events)
        if (R.Id != W.Id && R.Block == W.Block &&
            R.readBegin() < W.writeEnd() && W.writeBegin() < R.readEnd())
          ReadersOfWrites.set(W.Id, R.Id);
    // Index rbf by reader for O(bytes) lookup during placement.
    for (const RbfEdge &E : CE.Rbf)
      ExpectedWriter[{E.Reader, E.Loc}] = E.Writer;
  }

  bool search(std::vector<unsigned> *OrderOut) {
    Sequence.clear();
    if (!recurse(Relation::emptySet(CE.numEvents())))
      return false;
    if (OrderOut)
      *OrderOut = Sequence;
    return true;
  }

private:
  static constexpr unsigned NoWriter = ~0u;

  bool recurse(const BitSet &Placed) {
    if (Placed == CE.allEventsMask())
      return true;
    BitSet Unplaced = ~Placed;
    auto CanPlace = [&](unsigned E) {
      return bits::test(Unplaced, E) && !bits::any(Preds[E] & Unplaced) &&
             readsMatchMemory(CE.Events[E]);
    };
    // Complete without branching: see the class comment.
    for (unsigned E = 0; E < CE.numEvents(); ++E)
      if (!bits::any(ReadersOfWrites.row(E) & Unplaced) && CanPlace(E))
        return place(Placed, E);
    for (unsigned E = 0; E < CE.numEvents(); ++E)
      if (CanPlace(E) && place(Placed, E))
        return true;
    return false;
  }

  /// Places \p E after \p Placed and searches on; undoes the placement
  /// when no completion succeeds.
  bool place(const BitSet &Placed, unsigned E) {
    std::vector<std::pair<std::pair<unsigned, unsigned>, unsigned>> Undo;
    applyWrite(CE.Events[E], Undo);
    Sequence.push_back(E);
    BitSet Next = Placed;
    bits::set(Next, E);
    if (recurse(Next))
      return true;
    Sequence.pop_back();
    for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
      LastWriter[It->first] = It->second;
    return false;
  }

  bool readsMatchMemory(const Event &E) const {
    for (unsigned Loc = E.readBegin(); Loc < E.readEnd(); ++Loc) {
      auto ExpIt = ExpectedWriter.find({E.Id, Loc});
      assert(ExpIt != ExpectedWriter.end() && "read byte without rbf edge");
      auto MemIt = LastWriter.find({E.Block, Loc});
      unsigned Current = MemIt == LastWriter.end() ? NoWriter : MemIt->second;
      if (Current != ExpIt->second)
        return false;
    }
    return true;
  }

  void applyWrite(
      const Event &E,
      std::vector<std::pair<std::pair<unsigned, unsigned>, unsigned>> &Undo) {
    for (unsigned Loc = E.writeBegin(); Loc < E.writeEnd(); ++Loc) {
      std::pair<unsigned, unsigned> Key{E.Block, Loc};
      auto It = LastWriter.find(Key);
      Undo.push_back({Key, It == LastWriter.end() ? NoWriter : It->second});
      LastWriter[Key] = E.Id;
    }
  }

  const CandidateExecution &CE;
  Relation Order;
  std::vector<BitSet> Preds;
  /// Each event to the other events that read a byte it writes.
  Relation ReadersOfWrites;
  std::map<std::pair<unsigned, unsigned>, unsigned> ExpectedWriter;
  std::map<std::pair<unsigned, unsigned>, unsigned> LastWriter;
  std::vector<unsigned> Sequence;
};

} // namespace

bool jsmm::isSequentiallyConsistent(const CandidateExecution &CE,
                                    std::vector<unsigned> *OrderOut) {
  Interleaver I(CE);
  return I.search(OrderOut);
}
