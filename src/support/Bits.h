//===- support/Bits.h - Event sets of runtime width -----------------------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BitSet, the event-set type of the relation layer (support/Relation.h):
/// a set over {0, ..., universeBits()-1} for any universe up to
/// BitSet::MaxBits (the relation cap). Its words are inline, so building,
/// copying and returning a set never allocates at any size. Only the words
/// its universe needs are ever written or read (the rest stay
/// uninitialised), so a set of at most 64 elements costs one word per
/// operation, copies included.
///
/// Model code manipulates event classes with the jsmm::bits free functions
/// (test / set / clear / any / count / forEach / forEachWhile) plus the
/// ordinary bitwise operators. Complement stays inside the universe: the
/// bits past universeBits() are always zero.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_BITS_H
#define JSMM_SUPPORT_BITS_H

#include <cassert>
#include <cstdint>

namespace jsmm {

/// A set over a universe fixed at construction, in inline words. The first
/// word is always initialised and every operation handles it straight-line;
/// only a universe beyond 64 elements loops over further words.
class BitSet {
public:
  static constexpr unsigned MaxWords = 16;
  static constexpr unsigned MaxBits = MaxWords * 64;

  BitSet() { W[0] = 0; }
  explicit BitSet(unsigned Bits) : NBits(Bits) {
    assert(Bits <= MaxBits && "set universe too large");
    W[0] = 0;
    for (unsigned K = 1, E = words(); K < E; ++K)
      W[K] = 0;
  }
  BitSet(const BitSet &B) : NBits(B.NBits) {
    W[0] = B.W[0];
    for (unsigned K = 1, E = words(); K < E; ++K)
      W[K] = B.W[K];
  }
  BitSet &operator=(const BitSet &B) {
    NBits = B.NBits;
    W[0] = B.W[0];
    for (unsigned K = 1, E = words(); K < E; ++K)
      W[K] = B.W[K];
    return *this;
  }

  unsigned universeBits() const { return NBits; }
  unsigned words() const { return (NBits + 63) / 64; }
  uint64_t word(unsigned K) const { return W[K]; }
  uint64_t *data() { return W; }
  const uint64_t *data() const { return W; }

  friend BitSet operator|(const BitSet &A, const BitSet &B) {
    BitSet R = A;
    R |= B;
    return R;
  }
  friend BitSet operator&(const BitSet &A, const BitSet &B) {
    BitSet R = A;
    R &= B;
    return R;
  }
  friend BitSet operator~(const BitSet &A) {
    BitSet R = A;
    for (unsigned K = 0, E = R.words(); K < E; ++K)
      R.W[K] = ~R.W[K];
    if (R.NBits % 64)
      R.W[R.NBits / 64] &= (uint64_t(1) << (R.NBits % 64)) - 1;
    return R;
  }
  BitSet &operator|=(const BitSet &B) {
    assert(NBits == B.NBits && "set universe mismatch");
    W[0] |= B.W[0];
    for (unsigned K = 1, E = words(); K < E; ++K)
      W[K] |= B.W[K];
    return *this;
  }
  BitSet &operator&=(const BitSet &B) {
    assert(NBits == B.NBits && "set universe mismatch");
    W[0] &= B.W[0];
    for (unsigned K = 1, E = words(); K < E; ++K)
      W[K] &= B.W[K];
    return *this;
  }
  bool operator==(const BitSet &B) const {
    if (NBits != B.NBits || W[0] != B.W[0])
      return false;
    for (unsigned K = 1, E = words(); K < E; ++K)
      if (W[K] != B.W[K])
        return false;
    return true;
  }
  bool operator!=(const BitSet &B) const { return !(*this == B); }

private:
  unsigned NBits = 0;
  uint64_t W[MaxWords];
};

namespace bits {

inline bool test(const BitSet &S, unsigned I) {
  assert(I < S.universeBits() && "bit out of range");
  return (S.word(I / 64) >> (I % 64)) & 1;
}
inline void set(BitSet &S, unsigned I) {
  assert(I < S.universeBits() && "bit out of range");
  S.data()[I / 64] |= uint64_t(1) << (I % 64);
}
inline void clear(BitSet &S, unsigned I) {
  assert(I < S.universeBits() && "bit out of range");
  S.data()[I / 64] &= ~(uint64_t(1) << (I % 64));
}
inline bool any(const BitSet &S) {
  if (S.word(0))
    return true;
  for (unsigned K = 1, E = S.words(); K < E; ++K)
    if (S.word(K))
      return true;
  return false;
}
inline unsigned count(const BitSet &S) {
  unsigned Total = static_cast<unsigned>(__builtin_popcountll(S.word(0)));
  for (unsigned K = 1, E = S.words(); K < E; ++K)
    Total += static_cast<unsigned>(__builtin_popcountll(S.word(K)));
  return Total;
}

/// Invokes \p Fn(I) for every element I, in ascending order.
template <typename FnT> inline void forEach(const BitSet &S, FnT Fn) {
  for (uint64_t Word = S.word(0); Word; Word &= Word - 1)
    Fn(static_cast<unsigned>(__builtin_ctzll(Word)));
  for (unsigned K = 1, E = S.words(); K < E; ++K)
    for (uint64_t Word = S.word(K); Word;) {
      unsigned I = static_cast<unsigned>(__builtin_ctzll(Word));
      Word &= Word - 1;
      Fn(K * 64 + I);
    }
}

/// As forEach, but \p Fn returns false to stop. \returns false if stopped.
template <typename FnT> inline bool forEachWhile(const BitSet &S, FnT Fn) {
  for (uint64_t Word = S.word(0); Word; Word &= Word - 1)
    if (!Fn(static_cast<unsigned>(__builtin_ctzll(Word))))
      return false;
  for (unsigned K = 1, E = S.words(); K < E; ++K)
    for (uint64_t Word = S.word(K); Word;) {
      unsigned I = static_cast<unsigned>(__builtin_ctzll(Word));
      Word &= Word - 1;
      if (!Fn(K * 64 + I))
        return false;
    }
  return true;
}

} // namespace bits
} // namespace jsmm

#endif // JSMM_SUPPORT_BITS_H
