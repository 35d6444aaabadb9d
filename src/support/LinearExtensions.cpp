//===- support/LinearExtensions.cpp ---------------------------------------===//
///
/// \file
/// Backtracking enumeration of linear extensions, with an optional
/// mid-prefix early exit for visitors that can reject whole subtrees.
///
//===----------------------------------------------------------------------===//

#include "support/LinearExtensions.h"

using namespace jsmm;

namespace {

/// Depth-first enumeration state. Elements are picked one at a time; an
/// element is ready when all of its predecessors (within the universe) have
/// already been placed.
class Enumerator {

public:
  Enumerator(const Relation &Order, const BitSet &Universe,
             const std::function<bool(const std::vector<unsigned> &)> &Visit,
             const std::function<bool(const std::vector<unsigned> &)>
                 *PrefixOk)
      : Order(Order), Universe(Universe), Visit(Visit), PrefixOk(PrefixOk) {
    // Precompute predecessor sets restricted to the universe.
    for (unsigned B = 0; B < Order.size(); ++B)
      Preds.push_back(Order.column(B) & Universe);
  }

  /// \returns false if the visitor requested an early stop.
  bool run() {
    Sequence.reserve(bits::count(Universe));
    return recurse(Relation::emptySet(Order.size()));
  }

private:
  bool recurse(const BitSet &Placed) {
    if (Placed == Universe)
      return Visit(Sequence);
    for (unsigned E = 0; E < Order.size(); ++E) {
      if (!bits::test(Universe, E) || bits::test(Placed, E))
        continue;
      if (bits::any(Preds[E] & ~Placed))
        continue; // has an unplaced predecessor
      Sequence.push_back(E);
      bool Continue = true;
      if (PrefixOk && !(*PrefixOk)(Sequence)) {
        // Mid-prefix early exit: every completion of this prefix is
        // rejected, so skip the subtree without stopping the enumeration.
      } else {
        BitSet Next = Placed;
        bits::set(Next, E);
        Continue = recurse(Next);
      }
      Sequence.pop_back();
      if (!Continue)
        return false;
    }
    return true;
  }

  const Relation &Order;
  const BitSet &Universe;
  const std::function<bool(const std::vector<unsigned> &)> &Visit;
  const std::function<bool(const std::vector<unsigned> &)> *PrefixOk;
  std::vector<BitSet> Preds;
  std::vector<unsigned> Sequence;
};

} // namespace

bool jsmm::forEachLinearExtension(
    const Relation &Order, const BitSet &Universe,
    const std::function<bool(const std::vector<unsigned> &)> &Visit) {
  // A cyclic order (within the universe) has no linear extensions; the
  // recursion below naturally never reaches a complete sequence in that
  // case, so no special handling is needed.
  Enumerator E(Order, Universe, Visit, /*PrefixOk=*/nullptr);
  return E.run();
}

bool jsmm::forEachLinearExtension(
    const Relation &Order, const BitSet &Universe,
    const std::function<bool(const std::vector<unsigned> &)> &Visit,
    const std::function<bool(const std::vector<unsigned> &)> &PrefixOk) {
  Enumerator E(Order, Universe, Visit, &PrefixOk);
  return E.run();
}

uint64_t jsmm::countLinearExtensions(const Relation &Order,
                                     const BitSet &Universe,
                                     uint64_t Limit) {
  uint64_t Count = 0;
  forEachLinearExtension(Order, Universe, [&](const std::vector<unsigned> &) {
                                 ++Count;
                                 return Limit == 0 || Count < Limit;
                               });
  return Count;
}

// Explicit instantiation for both capacity tiers.
