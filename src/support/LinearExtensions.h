//===- support/LinearExtensions.h - Enumerating linear extensions --------===//
///
/// \file
/// Enumeration of the linear extensions of a partial order. Used to decide
/// existential properties over the JavaScript total-order witness ("is there
/// a tot making this candidate execution valid?") and universal properties
/// ("is this execution invalid for every tot?" — exact semantic deadness).
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_LINEAREXTENSIONS_H
#define JSMM_SUPPORT_LINEAREXTENSIONS_H

#include "support/Relation.h"

#include <functional>

namespace jsmm {

/// Enumerates every linear extension of the (acyclic) relation \p Order
/// restricted to the elements of \p Universe, invoking \p Visit with each
/// complete sequence. \p Visit returns false to stop the enumeration early.
///
/// \returns false if \p Visit stopped the enumeration, true otherwise
/// (including when \p Order restricted to Universe is cyclic, in which case
/// there are no linear extensions and Visit is never called).
bool forEachLinearExtension(
    const Relation &Order, const BitSet &Universe,
    const std::function<bool(const std::vector<unsigned> &)> &Visit);

/// As above, with a mid-prefix early exit: after each element is placed,
/// \p PrefixOk is consulted with the partial sequence; returning false
/// abandons every extension of that prefix (without stopping the whole
/// enumeration). Sound whenever the property \p PrefixOk rejects on is
/// preserved by extension — e.g. an already-violated ordering constraint.
bool forEachLinearExtension(
    const Relation &Order, const BitSet &Universe,
    const std::function<bool(const std::vector<unsigned> &)> &Visit,
    const std::function<bool(const std::vector<unsigned> &)> &PrefixOk);

/// \returns the number of linear extensions of \p Order over \p Universe,
/// stopping at \p Limit if nonzero.
uint64_t countLinearExtensions(const Relation &Order, const BitSet &Universe,
                               uint64_t Limit = 0);

} // namespace jsmm

#endif // JSMM_SUPPORT_LINEAREXTENSIONS_H
