//===- support/Bits.h - Generic bit-set helpers ---------------------------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-level bit-set helpers shared by every relation flavour. The model
/// code manipulates event classes as bit sets; historically those were raw
/// uint64_t words, which caps the event universe at 64. The relation layer
/// is now generic over the set representation:
///
///   - uint64_t            — the single-word set (Relation's SetT);
///   - DynSet              — a heap-backed set of runtime width (DynRelation,
///                           see support/DynRelation.h).
///
/// Templated model code uses the jsmm::bits free functions (test / set /
/// clear / any / count / forEach / forEachWhile) plus the ordinary bitwise
/// operators, which both representations provide with identical
/// semantics. For uint64_t the helpers compile to the exact single-word
/// instructions the pre-generic code used.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_BITS_H
#define JSMM_SUPPORT_BITS_H

#include <cstdint>

namespace jsmm {

namespace bits {

// --- uint64_t (the single-word fast path) --------------------------------

inline bool test(uint64_t S, unsigned I) { return (S >> I) & 1; }
inline void set(uint64_t &S, unsigned I) { S |= uint64_t(1) << I; }
inline void clear(uint64_t &S, unsigned I) { S &= ~(uint64_t(1) << I); }
inline bool any(uint64_t S) { return S != 0; }
inline unsigned count(uint64_t S) {
  return static_cast<unsigned>(__builtin_popcountll(S));
}

/// Invokes \p Fn(I) for every set bit I, in ascending order.
template <typename FnT> inline void forEach(uint64_t S, FnT Fn) {
  while (S) {
    unsigned I = static_cast<unsigned>(__builtin_ctzll(S));
    S &= S - 1;
    Fn(I);
  }
}

/// As forEach, but \p Fn returns false to stop. \returns false if stopped.
template <typename FnT> inline bool forEachWhile(uint64_t S, FnT Fn) {
  while (S) {
    unsigned I = static_cast<unsigned>(__builtin_ctzll(S));
    S &= S - 1;
    if (!Fn(I))
      return false;
  }
  return true;
}

} // namespace bits
} // namespace jsmm

#endif // JSMM_SUPPORT_BITS_H
