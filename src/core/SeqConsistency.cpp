//===- core/SeqConsistency.cpp --------------------------------------------===//

#include "core/SeqConsistency.h"

#include <map>

using namespace jsmm;

namespace {

/// Backtracking interleaver: places one event at a time (respecting
/// sb ∪ asw ∪ Init-first), maintaining a last-writer map per byte, and
/// prunes the moment a placed read disagrees with the execution's rbf.
class Interleaver {
public:
  explicit Interleaver(const CandidateExecution &CE) : CE(CE) {
    unsigned N = CE.numEvents();
    Order = CE.Sb.unioned(CE.Asw);
    // Init events come first in any sequential interleaving.
    for (const Event &E : CE.Events)
      if (E.Ord == Mode::Init)
        for (unsigned B = 0; B < N; ++B)
          if (B != E.Id)
            Order.set(E.Id, B);
    for (unsigned B = 0; B < N; ++B)
      Preds.push_back(Order.column(B));
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
    for (unsigned E = 0; E < CE.numEvents(); ++E) {
      if (!bits::test(Unplaced, E) || bits::any(Preds[E] & Unplaced))
        continue;
      if (!readsMatchMemory(CE.Events[E]))
        continue;
      // Place E: record the write and recurse.
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
    }
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
