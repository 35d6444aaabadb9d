//===- analysis/StaticValues.cpp ------------------------------------------===//

#include "analysis/StaticValues.h"

#include "analysis/AnalysisDetail.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

using namespace jsmm;
using namespace jsmm::analysis;
namespace ad = jsmm::analysis::detail;
using ad::BranchRecord;

const char *jsmm::analysis::byteClassName(ByteClass C) {
  switch (C) {
  case ByteClass::ReadOnly:
    return "read-only";
  case ByteClass::SingleWriter:
    return "single-writer";
  case ByteClass::MultiWriter:
    return "multi-writer";
  }
  return "unknown";
}

namespace {

/// True when write access \p W covers absolute byte \p L of \p Block.
bool coversByte(const AccessRecord &W, unsigned Block, unsigned L) {
  return W.Access.Block == Block && W.Access.Offset <= L &&
         L < W.Access.Offset + W.Access.Width;
}

/// The may-rf candidate sets, refined possible sets, and constant
/// verdicts of \p P's reads.
void computeMayRf(StaticValues &SV, const Program &P) {
  const std::vector<AccessRecord> &A = SV.C.Accesses;
  SV.ReadIdxOfAccess.assign(A.size(), -1);
  for (unsigned RIdx = 0; RIdx < A.size(); ++RIdx) {
    const AccessRecord &R = A[RIdx];
    if (!R.isRead())
      continue;
    ReadMayRf MR;
    MR.AccessIdx = RIdx;
    bool AllSingleton = true;
    for (unsigned K = 0; K < R.Access.Width; ++K) {
      unsigned L = R.Access.Offset + K;

      // Is there an unconditional same-thread covering write before R?
      // It shadows any hb-earlier writer on *every* path (E2); with the
      // init write as the shadowed writer this is the init exclusion.
      auto Shadows = [&](unsigned WIdx, unsigned CIdx) {
        const AccessRecord &C = A[CIdx];
        return CIdx != WIdx && CIdx != RIdx && C.isWrite() &&
               C.Thread == R.Thread && C.Depth == 0 &&
               coversByte(C, R.Access.Block, L) && C.PreIdx < R.PreIdx;
      };
      bool InitShadowed = false;
      for (unsigned CIdx = 0; CIdx < A.size() && !InitShadowed; ++CIdx)
        InitShadowed = Shadows(static_cast<unsigned>(-1), CIdx);

      MayRfByte MB;
      MB.Init = !InitShadowed;
      if (InitShadowed)
        ++SV.MayRfExcluded;
      for (unsigned WIdx = 0; WIdx < A.size(); ++WIdx) {
        const AccessRecord &W = A[WIdx];
        if (WIdx == RIdx || !W.isWrite() ||
            !coversByte(W, R.Access.Block, L))
          continue;
        bool Excluded = false;
        // E1: same-thread write after the read in pre-order.
        if (W.Thread == R.Thread && W.PreIdx > R.PreIdx)
          Excluded = true;
        // E2: same-thread write shadowed by an unconditional covering
        // write between it and the read.
        if (!Excluded && W.Thread == R.Thread)
          for (unsigned CIdx = 0; CIdx < A.size() && !Excluded; ++CIdx)
            Excluded = Shadows(WIdx, CIdx) && W.PreIdx < A[CIdx].PreIdx;
        if (Excluded)
          ++SV.MayRfExcluded;
        else
          MB.Writers.push_back(WIdx);
      }

      std::set<uint8_t> Poss;
      if (MB.Init)
        Poss.insert(ad::initByte(P, R.Access.Block, L));
      for (unsigned WIdx : MB.Writers)
        Poss.insert(ad::byteOf(A[WIdx].Value, L - A[WIdx].Access.Offset));
      AllSingleton = AllSingleton && Poss.size() == 1;
      MR.Bytes.push_back(std::move(MB));
      MR.Possible.push_back(std::move(Poss));
    }
    if (AllSingleton) {
      MR.Constant = true;
      for (unsigned K = 0; K < MR.Possible.size(); ++K)
        MR.ConstantValue |= static_cast<uint64_t>(*MR.Possible[K].begin())
                            << (8 * K);
    }
    SV.ReadIdxOfAccess[RIdx] = static_cast<int>(SV.Reads.size());
    SV.Reads.push_back(std::move(MR));
  }
}

/// (thread, register) constants over the refined read facts.
void computeRegConstants(StaticValues &SV) {
  std::map<std::pair<unsigned, unsigned>, std::pair<bool, uint64_t>> Acc;
  for (const ReadMayRf &MR : SV.Reads) {
    const AccessRecord &R = SV.C.Accesses[MR.AccessIdx];
    auto [It, Inserted] =
        Acc.emplace(std::make_pair(R.Thread, R.Dst),
                    std::make_pair(MR.Constant, MR.ConstantValue));
    if (!Inserted)
      It->second.first = It->second.first && MR.Constant &&
                         It->second.second == MR.ConstantValue;
  }
  for (const auto &[Key, V] : Acc)
    if (V.first)
      SV.RegConstants.emplace(Key, V.second);
}

/// The value-aware lints: ConstantRead, then the refined DeadBranch.
/// Judged over the refined per-read possible sets, which subsume the old
/// raw per-byte judgment (raw sets are supersets, so anything the old
/// lint proved dead stays dead).
void lintValues(StaticValues &SV, const std::vector<BranchRecord> &Branches) {
  // An uncovered read is already reported as the root cause.
  std::vector<std::pair<int, int>> Uncovered;
  for (const LintDiag &D : SV.C.Lints)
    if (D.Kind == LintKind::UncoveredRead)
      Uncovered.emplace_back(D.Thread, D.PreIdx);
  std::sort(Uncovered.begin(), Uncovered.end());
  for (const ReadMayRf &MR : SV.Reads) {
    if (!MR.Constant)
      continue;
    const AccessRecord &R = SV.C.Accesses[MR.AccessIdx];
    if (std::binary_search(Uncovered.begin(), Uncovered.end(),
                           std::make_pair(static_cast<int>(R.Thread),
                                          static_cast<int>(R.PreIdx))))
      continue;
    SV.C.Lints.push_back(
        {LintKind::ConstantRead, static_cast<int>(R.Thread),
         static_cast<int>(R.PreIdx),
         ad::accessText(R) + ": every justification yields " +
             std::to_string(MR.ConstantValue) +
             "; the read cannot distinguish executions"});
  }

  std::map<std::pair<unsigned, unsigned>, std::vector<const ReadMayRf *>>
      AssignedBy;
  for (const ReadMayRf &MR : SV.Reads) {
    const AccessRecord &R = SV.C.Accesses[MR.AccessIdx];
    AssignedBy[{R.Thread, R.Dst}].push_back(&MR);
  }
  for (const BranchRecord &Br : Branches) {
    auto It = AssignedBy.find({Br.Thread, Br.CondReg});
    if (It == AssignedBy.end())
      continue; // never-assigned register: not this lint's business
    bool CanEqual = false, MustEqual = true;
    for (const ReadMayRf *MR : It->second) {
      const Acc &A = SV.C.Accesses[MR->AccessIdx].Access;
      bool Fits = A.Width >= 8 || (Br.Value >> (8 * A.Width)) == 0;
      bool Can = Fits, Must = Fits;
      for (unsigned K = 0; K < A.Width && (Can || Must); ++K) {
        const std::set<uint8_t> &Possible = MR->Possible[K];
        bool HasByte =
            Fits && Possible.count(ad::byteOf(Br.Value, K)) != 0;
        Can = Can && HasByte;
        Must = Must && HasByte && Possible.size() == 1;
      }
      CanEqual = CanEqual || Can;
      MustEqual = MustEqual && Must;
    }
    bool Dead = Br.Equal ? !CanEqual : MustEqual;
    if (Dead)
      SV.C.Lints.push_back(
          {LintKind::DeadBranch, static_cast<int>(Br.Thread),
           static_cast<int>(Br.PreIdx),
           "condition r" + std::to_string(Br.CondReg) +
               (Br.Equal ? " == " : " != ") + std::to_string(Br.Value) +
               " can never hold; the branch body is dead"});
  }
}

/// The total pointer order AccessOfInstr is sorted by.
bool instrBefore(const std::pair<const Instr *, unsigned> &X,
                 const std::pair<const Instr *, unsigned> &Y) {
  return std::less<const Instr *>()(X.first, Y.first);
}

} // namespace

unsigned ByteTable::addRun(unsigned Block, unsigned Begin, unsigned End) {
  unsigned Slot = static_cast<unsigned>(Facts.size());
  Runs.push_back({Block, Begin, End, Slot});
  Facts.resize(Facts.size() + (End - Begin));
  return Slot;
}

const ByteFacts &ByteTable::at(std::pair<unsigned, unsigned> Key) const {
  auto [Block, Byte] = Key;
  // The last run starting at or before the byte.
  auto It = std::upper_bound(Runs.begin(), Runs.end(), Key,
                             [](std::pair<unsigned, unsigned> K, const Run &R) {
                               return K < std::make_pair(R.Block, R.Begin);
                             });
  if (It == Runs.begin() || (--It)->Block != Block || Byte >= It->End)
    throw std::out_of_range("byte " + std::to_string(Byte) + " of buffer " +
                            std::to_string(Block) +
                            " is touched by no access");
  return Facts[It->Slot + (Byte - It->Begin)];
}

int StaticValues::accessOf(const Instr *I) const {
  auto It = std::lower_bound(AccessOfInstr.begin(), AccessOfInstr.end(),
                             std::make_pair(I, 0u), instrBefore);
  if (It == AccessOfInstr.end() || It->first != I)
    return -1;
  return static_cast<int>(It->second);
}

bool StaticValues::pathFeasible(const ThreadPath &Path) const {
  if (Path.Constraints.empty())
    return true;
  for (const RegConstraint &Ct : Path.Constraints) {
    for (const Instr *I : Path.Accesses) {
      if (I->K == Instr::Kind::Store || I->Dst != Ct.Reg)
        continue;
      int AccessIdx = accessOf(I);
      if (AccessIdx < 0)
        continue;
      const ReadMayRf *MR = readMayRf(static_cast<unsigned>(AccessIdx));
      if (!MR || !MR->Constant)
        continue;
      bool Violates = Ct.MustEqual ? MR->ConstantValue != Ct.Value
                                   : MR->ConstantValue == Ct.Value;
      if (Violates)
        return false;
    }
  }
  return true;
}

StaticValues jsmm::analysis::analyzeValues(const Program &P) {
  StaticValues SV;
  std::vector<BranchRecord> Branches;
  std::vector<const Instr *> InstrOf;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    unsigned PreIdx = 0;
    ad::flattenBody(P.threadBody(T), T, 0, PreIdx, SV.C.Accesses,
                        Branches, InstrOf);
  }
  SV.AccessOfInstr.reserve(InstrOf.size());
  for (unsigned I = 0; I < InstrOf.size(); ++I)
    SV.AccessOfInstr.emplace_back(InstrOf[I], I);
  std::sort(SV.AccessOfInstr.begin(), SV.AccessOfInstr.end(), instrBefore);

  ad::classifyAccesses(P, SV.C.Accesses, SV.C, SV.Bytes);
  computeMayRf(SV, P);
  computeRegConstants(SV);
  lintValues(SV, Branches);
  ad::lintDuplicateThreads(threadSymmetry(P), SV.C);
  return SV;
}

StaticClassification jsmm::analysis::classify(const Program &P) {
  return analyzeValues(P).C;
}
