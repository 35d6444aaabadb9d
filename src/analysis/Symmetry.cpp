//===- analysis/Symmetry.cpp ----------------------------------------------===//

#include "analysis/Symmetry.h"

#include <algorithm>
#include <cstdint>
#include <map>
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

/// Which thread touches each byte of each buffer: -1 untouched, a thread
/// index, or -2 for more than one thread. Conditional bodies count — an
/// access on an untaken path still shapes the candidate space of the
/// combinations that take it.
struct TouchMap {
  std::vector<std::vector<int>> ByBlock; // [block][byte]

  explicit TouchMap(const Program &P) {
    for (unsigned Size : P.bufferSizes())
      ByBlock.emplace_back(Size, -1);
    for (unsigned T = 0; T < P.numThreads(); ++T)
      record(P.threadBody(T), static_cast<int>(T));
  }

  void record(const std::vector<Instr> &Body, int T) {
    for (const Instr &I : Body) {
      if (I.K == Instr::Kind::Load || I.K == Instr::Kind::Store ||
          I.K == Instr::Kind::Rmw) {
        const Acc &A = I.Access;
        for (unsigned B = A.Offset; B < A.Offset + A.Width; ++B) {
          int &Owner = ByBlock[A.Block][B];
          if (Owner == -1)
            Owner = T;
          else if (Owner != T)
            Owner = -2;
        }
      }
      record(I.Body, T);
    }
  }

  /// \returns true iff byte \p B of \p Block is touched by \p T alone.
  bool privateTo(unsigned Block, unsigned B, int T) const {
    return ByBlock[Block][B] == T;
  }
};

using ByteKey = std::pair<unsigned, unsigned>; // (block, byte)

/// Lockstep comparison of \p A against \p B where accesses may differ only
/// in their byte offset, accumulating the forward byte map into \p Fwd
/// (and its inverse into \p Bwd to reject non-injective renamings).
bool renamedBodiesEqual(const std::vector<Instr> &A,
                        const std::vector<Instr> &B,
                        std::map<ByteKey, unsigned> &Fwd,
                        std::map<ByteKey, unsigned> &Bwd) {
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
    if (X.K != Instr::Kind::IfEq && X.K != Instr::Kind::IfNe) {
      for (unsigned K = 0; K < Ax.Width; ++K) {
        ByteKey From{Ax.Block, Ax.Offset + K};
        unsigned To = Ay.Offset + K;
        auto [FI, FNew] = Fwd.try_emplace(From, To);
        if (!FNew && FI->second != To)
          return false;
        auto [BI, BNew] = Bwd.try_emplace(ByteKey{Ax.Block, To}, From.second);
        if (!BNew && BI->second != From.second)
          return false;
      }
    }
    if (!renamedBodiesEqual(X.Body, Y.Body, Fwd, Bwd))
      return false;
  }
  return true;
}

/// \returns true if swapping threads \p T1 and \p T2 under the byte
/// renaming \p Fwd is a program automorphism: every *moved* byte must be
/// private to its thread, so extending the renaming by the identity fixes
/// all other threads (and the zero-filled Init events).
bool renamingIsPrivate(const std::map<ByteKey, unsigned> &Fwd,
                       const TouchMap &Touch, int T1, int T2) {
  for (const auto &[From, To] : Fwd) {
    if (From.second == To)
      continue;
    if (!Touch.privateTo(From.first, From.second, T1) ||
        !Touch.privateTo(From.first, To, T2))
      return false;
  }
  return true;
}

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
        if (!ZeroInit)
          return false;
        std::map<ByteKey, unsigned> Fwd, Bwd;
        return renamedBodiesEqual(A, B, Fwd, Bwd) &&
               renamingIsPrivate(Fwd, Touch, static_cast<int>(Rep),
                                 static_cast<int>(T));
      });
}
