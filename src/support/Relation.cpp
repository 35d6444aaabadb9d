//===- support/Relation.cpp -----------------------------------------------===//
///
/// \file
/// Out-of-line pieces of the bit-matrix relation layer: the capacity
/// failure (a typed CapacityError), the debug renderer, and the historical
/// single-word totalOrderFromSequence entry point.
///
//===----------------------------------------------------------------------===//

#include "support/Relation.h"

#include "support/CapacityError.h"
#include "support/DynRelation.h"

using namespace jsmm;

void jsmm::detail::relationUniverseTooLarge(unsigned Size, unsigned MaxSize) {
  throw CapacityError("relation universe too large (" +
                      std::to_string(Size) + " elements > " +
                      std::to_string(MaxSize) + ")");
}

std::string jsmm::detail::renderRelation(
    const std::vector<std::pair<unsigned, unsigned>> &Pairs) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[A, B] : Pairs) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "<" + std::to_string(A) + "," + std::to_string(B) + ">";
  }
  Out += "}";
  return Out;
}

Relation jsmm::totalOrderFromSequence(const std::vector<unsigned> &Order,
                                      unsigned Size) {
  return totalOrderOver<Relation>(Order, Size);
}
