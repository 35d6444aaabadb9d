//===- analysis/Symmetry.cpp ----------------------------------------------===//

#include "analysis/Symmetry.h"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <unordered_map>

using namespace jsmm;

namespace {

//===----------------------------------------------------------------------===//
// Exact body equality (Program)
//===----------------------------------------------------------------------===//

bool accsEqual(const Acc &A, const Acc &B) {
  return A.Block == B.Block && A.Offset == B.Offset && A.Width == B.Width &&
         A.Ord == B.Ord && A.TearFree == B.TearFree;
}

bool bodiesEqual(const std::vector<Instr> &A, const std::vector<Instr> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    const Instr &X = A[I], &Y = B[I];
    if (X.K != Y.K || X.Dst != Y.Dst || X.Value != Y.Value ||
        X.CondReg != Y.CondReg || !accsEqual(X.Access, Y.Access) ||
        !bodiesEqual(X.Body, Y.Body))
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Renamed body equality (Program)
//===----------------------------------------------------------------------===//

bool isAccess(const Instr &I) {
  return I.K != Instr::Kind::IfEq && I.K != Instr::Kind::IfNe;
}

/// The bytes the threads touch, numbered densely: the access ranges merge
/// into maximal runs in (block, offset) order, as the analysis's
/// ByteTable does, so each access's bytes are consecutive slots. Per
/// slot, which thread touches it: a thread index, or -2 for more than one
/// thread. Conditional bodies count — an access on an untaken path still
/// shapes the candidate space of the combinations that take it.
struct TouchMap {
  /// [thread][access in pre-order] -> the slot of the access's first byte.
  std::vector<std::vector<unsigned>> SlotOf;
  std::vector<int> Owner;

  explicit TouchMap(const Program &P) : SlotOf(P.numThreads()) {
    std::vector<Range> Ranges;
    for (unsigned T = 0; T < P.numThreads(); ++T)
      collect(P.threadBody(T), T, Ranges);
    std::sort(Ranges.begin(), Ranges.end(),
              [](const Range &A, const Range &B) {
                return std::tie(A.Block, A.Offset) <
                       std::tie(B.Block, B.Offset);
              });
    unsigned Slots = 0, Block = 0, Begin = 0, End = 0;
    for (size_t K = 0; K < Ranges.size(); ++K) {
      const Range &R = Ranges[K];
      if (K == 0 || R.Block != Block || R.Offset > End) {
        Slots += End - Begin;
        Block = R.Block;
        Begin = End = R.Offset;
      }
      End = std::max(End, R.Offset + R.Width);
      SlotOf[R.Thread][R.Idx] = Slots + (R.Offset - Begin);
    }
    Owner.assign(Slots + (End - Begin), -1);
    for (const Range &R : Ranges)
      for (unsigned B = 0; B < R.Width; ++B) {
        int &O = Owner[SlotOf[R.Thread][R.Idx] + B];
        int T = static_cast<int>(R.Thread);
        O = (O == -1 || O == T) ? T : -2;
      }
  }

private:
  struct Range {
    unsigned Block, Offset, Width, Thread, Idx;
  };

  void collect(const std::vector<Instr> &Body, unsigned T,
               std::vector<Range> &Ranges) {
    for (const Instr &I : Body) {
      if (isAccess(I)) {
        const Acc &A = I.Access;
        Ranges.push_back({A.Block, A.Offset, A.Width, T,
                          static_cast<unsigned>(SlotOf[T].size())});
        SlotOf[T].push_back(0);
      }
      collect(I.Body, T, Ranges);
    }
  }
};

/// Renamed body equality: a lockstep comparison of two thread bodies where
/// accesses may differ only in their byte offset. It builds the byte
/// renaming in flat per-slot arrays: Fwd maps a slot to its image, and
/// Taken marks the images, which rejects non-injective renamings. An entry
/// belongs to the current comparison when its stamp equals Epoch, so a new
/// comparison starts from an empty renaming without clearing the arrays.
struct Renaming {
  const TouchMap &Touch;
  std::vector<unsigned> Fwd, FwdStamp, TakenStamp;
  unsigned Epoch = 0;

  explicit Renaming(const TouchMap &Touch)
      : Touch(Touch), Fwd(Touch.Owner.size()), FwdStamp(Touch.Owner.size()),
        TakenStamp(Touch.Owner.size()) {}

  /// \returns true if swapping threads \p TA and \p TB under the renaming
  /// of their bodies is a program automorphism: the bodies match up to
  /// byte offsets, and every *moved* byte is private to its thread, so
  /// extending the renaming by the identity fixes all other threads (and
  /// the zero-filled Init events).
  bool matches(const Program &P, unsigned TA, unsigned TB) {
    ++Epoch;
    unsigned Idx = 0;
    return equal(P.threadBody(TA), P.threadBody(TB), TA, TB, Idx);
  }

private:
  bool equal(const std::vector<Instr> &A, const std::vector<Instr> &B,
             unsigned TA, unsigned TB, unsigned &Idx) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I) {
      const Instr &X = A[I], &Y = B[I];
      if (X.K != Y.K || X.Dst != Y.Dst || X.Value != Y.Value ||
          X.CondReg != Y.CondReg)
        return false;
      const Acc &Ax = X.Access, &Ay = Y.Access;
      if (Ax.Block != Ay.Block || Ax.Width != Ay.Width || Ax.Ord != Ay.Ord ||
          Ax.TearFree != Ay.TearFree)
        return false;
      if (isAccess(X)) {
        unsigned From = Touch.SlotOf[TA][Idx], To = Touch.SlotOf[TB][Idx];
        ++Idx;
        for (unsigned K = 0; K < Ax.Width; ++K)
          if (!map(From + K, To + K, TA, TB))
            return false;
      }
      if (!equal(X.Body, Y.Body, TA, TB, Idx))
        return false;
    }
    return true;
  }

  /// Adds From -> To to the renaming; false if it contradicts an entry or
  /// moves a byte that is not private to its thread.
  bool map(unsigned From, unsigned To, unsigned TA, unsigned TB) {
    if (FwdStamp[From] == Epoch)
      return Fwd[From] == To;
    if (TakenStamp[To] == Epoch)
      return false;
    FwdStamp[From] = TakenStamp[To] = Epoch;
    Fwd[From] = To;
    return From == To || (Touch.Owner[From] == static_cast<int>(TA) &&
                          Touch.Owner[To] == static_cast<int>(TB));
  }
};

//===----------------------------------------------------------------------===//
// Class assembly
//===----------------------------------------------------------------------===//

void mix(uint64_t &H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
}

/// Hashes every field of \p Body that bodiesEqual and renamedBodiesEqual
/// compare except byte offsets, so two threads either comparison matches
/// share a signature.
void mixBody(uint64_t &H, const std::vector<Instr> &Body) {
  mix(H, Body.size());
  for (const Instr &I : Body) {
    const Acc &A = I.Access;
    mix(H, static_cast<uint64_t>(I.K));
    mix(H, I.Dst);
    mix(H, I.Value);
    mix(H, I.CondReg);
    mix(H, A.Block);
    mix(H, A.Width);
    mix(H, static_cast<uint64_t>(A.Ord));
    mix(H, A.TearFree);
    mixBody(H, I.Body);
  }
}

/// Groups the threads of \p P by the pairwise predicate \p Matches
/// (candidate, representative, &ExactMatch), comparing a thread only with
/// the groups of its own signature; keeps classes of size >= 2.
template <typename MatchFn>
ThreadSymmetry assembleClasses(const Program &P, MatchFn Matches) {
  ThreadSymmetry S;
  std::vector<std::vector<unsigned>> Groups;
  std::vector<char> GroupExact;
  std::unordered_map<uint64_t, std::vector<size_t>> GroupsOfSignature;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    uint64_t Signature = 0;
    mixBody(Signature, P.threadBody(T));
    std::vector<size_t> &Bucket = GroupsOfSignature[Signature];
    bool Placed = false;
    for (size_t I = 0; I < Bucket.size() && !Placed; ++I) {
      size_t G = Bucket[I];
      bool ExactMatch = false;
      if (Matches(T, Groups[G].front(), ExactMatch)) {
        Groups[G].push_back(T);
        GroupExact[G] = GroupExact[G] && ExactMatch;
        Placed = true;
      }
    }
    if (!Placed) {
      Bucket.push_back(Groups.size());
      Groups.push_back({T});
      GroupExact.push_back(true);
    }
  }
  for (size_t G = 0; G < Groups.size(); ++G) {
    if (Groups[G].size() < 2)
      continue;
    S.Classes.push_back(std::move(Groups[G]));
    S.Exact.push_back(GroupExact[G]);
  }
  return S;
}

} // namespace

ThreadSymmetry jsmm::threadSymmetry(const Program &P) {
  TouchMap Touch(P);
  Renaming Renamed(Touch);
  // Byte renaming is only an automorphism when the renamed bytes carry
  // equal initial values; all-zero buffers (the common case) license any
  // private renaming, so nonzero init simply limits classes to exact ones.
  bool ZeroInit = !P.hasNonZeroInit();
  return assembleClasses(
      P, [&](unsigned T, unsigned Rep, bool &ExactMatch) {
        const std::vector<Instr> &A = P.threadBody(Rep);
        const std::vector<Instr> &B = P.threadBody(T);
        if (bodiesEqual(A, B)) {
          ExactMatch = true;
          return true;
        }
        ExactMatch = false;
        return ZeroInit && Renamed.matches(P, Rep, T);
      });
}
