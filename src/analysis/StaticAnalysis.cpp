//===- analysis/StaticAnalysis.cpp ----------------------------------------===//
//
// The shared static-analysis internals (AnalysisDetail.h): flattening,
// footprint classification, and the footprint-level lints, plus the
// redundant-fence lints of a compiled form. classify() lives in
// StaticValues.cpp — the classification is the footprint slice of the
// full value analysis, computed once.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisDetail.h"

#include <algorithm>
#include <numeric>

using namespace jsmm;
using namespace jsmm::analysis;

const char *jsmm::analysis::lintKindName(LintKind K) {
  switch (K) {
  case LintKind::DeadStore:
    return "dead-store";
  case LintKind::UncoveredRead:
    return "uncovered-read";
  case LintKind::DeadBranch:
    return "dead-branch";
  case LintKind::DuplicateThread:
    return "duplicate-thread";
  case LintKind::RedundantFence:
    return "redundant-fence";
  case LintKind::ConstantRead:
    return "constant-read";
  }
  return "unknown";
}

namespace {

/// The litmus-syntax width token of an access ("u32", "dv3", ...).
std::string widthToken(const Acc &A) {
  if (A.Width == 8)
    return "u64";
  if (A.TearFree && (A.Width == 1 || A.Width == 2 || A.Width == 4))
    return 'u' + std::to_string(8 * A.Width);
  return "dv" + std::to_string(A.Width);
}

const char *targetFenceName(TFence F) {
  switch (F) {
  case TFence::None:
    return "none";
  case TFence::MFence:
    return "mfence";
  case TFence::Sync:
    return "sync";
  case TFence::LwSync:
    return "lwsync";
  case TFence::CtrlIsync:
    return "ctrlisync";
  case TFence::DmbV7:
    return "dmb";
  default:
    return "fence";
  }
}

/// True when accesses \p X and \p Y may race (the conservative Fig. 7
/// mirror): distinct threads, overlapping ranges of one block, at least
/// one write, not both SeqCst on the identical range.
bool mayRace(const AccessRecord &X, const AccessRecord &Y) {
  if (X.Thread == Y.Thread || X.Access.Block != Y.Access.Block)
    return false;
  if (!X.isWrite() && !Y.isWrite())
    return false;
  unsigned Begin = std::max(X.Access.Offset, Y.Access.Offset);
  unsigned End = std::min(X.Access.Offset + X.Access.Width,
                          Y.Access.Offset + Y.Access.Width);
  if (Begin >= End)
    return false;
  bool BothScSameRange =
      X.Access.Ord == Mode::SeqCst && Y.Access.Ord == Mode::SeqCst &&
      X.Access.Offset == Y.Access.Offset && X.Access.Width == Y.Access.Width;
  return !BothScSameRange;
}

} // namespace

uint8_t jsmm::analysis::detail::byteOf(uint64_t Value, unsigned K) {
  return static_cast<uint8_t>(Value >> (8 * K));
}

std::string jsmm::analysis::detail::accessText(const AccessRecord &R) {
  std::string Verb = R.K == Instr::Kind::Store
                         ? "store"
                         : (R.K == Instr::Kind::Rmw ? "exchange" : "load");
  if (R.Access.Ord == Mode::SeqCst && R.K != Instr::Kind::Rmw)
    Verb += ".sc";
  std::string Out = Verb + " " + widthToken(R.Access) + " " +
                    std::to_string(R.Access.Offset);
  if (R.Access.Block)
    Out += " (buffer " + std::to_string(R.Access.Block) + ")";
  return Out;
}

void jsmm::analysis::detail::flattenBody(
    const std::vector<Instr> &Body, unsigned Thread, unsigned Depth,
    unsigned &PreIdx, std::vector<AccessRecord> &Accesses,
    std::vector<BranchRecord> &Branches,
    std::vector<const Instr *> &InstrOf) {
  for (const Instr &I : Body) {
    unsigned Idx = PreIdx++;
    switch (I.K) {
    case Instr::Kind::Load:
    case Instr::Kind::Store:
    case Instr::Kind::Rmw:
      Accesses.push_back(
          {Thread, Idx, I.K, I.Access, I.Value, I.Dst, Depth});
      InstrOf.push_back(&I);
      break;
    case Instr::Kind::IfEq:
    case Instr::Kind::IfNe:
      Branches.push_back(
          {Thread, Idx, I.K == Instr::Kind::IfEq, I.CondReg, I.Value});
      flattenBody(I.Body, Thread, Depth + 1, PreIdx, Accesses, Branches,
                  InstrOf);
      break;
    }
  }
}

uint8_t jsmm::analysis::detail::initByte(const Program &P, unsigned Block,
                                         unsigned Byte) {
  const std::vector<uint8_t> &Init = P.initBytes(Block);
  return Byte < Init.size() ? Init[Byte] : 0;
}

void jsmm::analysis::detail::classifyAccesses(
    const Program &P, const std::vector<AccessRecord> &Accesses,
    StaticClassification &Out, ByteTable &Bytes) {
  std::vector<unsigned> ByStart(Accesses.size());
  std::iota(ByStart.begin(), ByStart.end(), 0u);
  auto StartOf = [&](unsigned I) {
    const Acc &A = Accesses[I].Access;
    return std::make_pair(A.Block, A.Offset);
  };
  std::sort(ByStart.begin(), ByStart.end(), [&](unsigned X, unsigned Y) {
    return StartOf(X) < StartOf(Y);
  });

  // The byte table: the sorted ranges merge into maximal runs of touched
  // bytes; FirstSlot[A] is the slot of access A's first byte.
  std::vector<unsigned> FirstSlot(Accesses.size());
  for (size_t I = 0; I < ByStart.size();) {
    const Acc &First = Accesses[ByStart[I]].Access;
    unsigned End = First.Offset + First.Width;
    size_t J = I + 1;
    for (; J < ByStart.size(); ++J) {
      const Acc &A = Accesses[ByStart[J]].Access;
      if (A.Block != First.Block || A.Offset > End)
        break;
      End = std::max(End, A.Offset + A.Width);
    }
    unsigned Slot = Bytes.addRun(First.Block, First.Offset, End);
    for (unsigned Byte = First.Offset; Byte < End; ++Byte)
      Bytes.slot(Slot + Byte - First.Offset).Init =
          initByte(P, First.Block, Byte);
    for (; I < J; ++I)
      FirstSlot[ByStart[I]] =
          Slot + Accesses[ByStart[I]].Access.Offset - First.Offset;
  }
  for (unsigned A = 0; A < Accesses.size(); ++A) {
    const AccessRecord &R = Accesses[A];
    for (unsigned K = 0; K < R.Access.Width; ++K) {
      ByteFacts &F = Bytes.slot(FirstSlot[A] + K);
      if (R.isWrite()) {
        ++F.Writers;
        F.Class = F.Writers == 1 ? ByteClass::SingleWriter
                                 : ByteClass::MultiWriter;
      }
      if (R.isRead())
        F.Read = true;
    }
  }

  // Every dynamic race is between events generated by a mayRace pair
  // (events inherit range and mode from their access; Init events
  // happen-before everything and never race), so an empty relation
  // certifies DRF. Overlapping pairs are found by a sweep: in
  // (block, offset) order, the accesses overlapping one start inside
  // its range and follow it directly.
  for (size_t I = 0; I < ByStart.size(); ++I) {
    const Acc &X = Accesses[ByStart[I]].Access;
    for (size_t J = I + 1; J < ByStart.size(); ++J) {
      const Acc &Y = Accesses[ByStart[J]].Access;
      if (Y.Block != X.Block || Y.Offset >= X.Offset + X.Width)
        break;
      if (mayRace(Accesses[ByStart[I]], Accesses[ByStart[J]]))
        Out.MayRaces.push_back({std::min(ByStart[I], ByStart[J]),
                                std::max(ByStart[I], ByStart[J])});
    }
  }
  std::sort(Out.MayRaces.begin(), Out.MayRaces.end(),
            [](const MayRacePair &X, const MayRacePair &Y) {
              return std::make_pair(X.A, X.B) < std::make_pair(Y.A, Y.B);
            });
  Out.StaticallyDrf = Out.MayRaces.empty();

  for (unsigned A = 0; A < Accesses.size(); ++A) {
    const AccessRecord &R = Accesses[A];
    auto ByteAt = [&](unsigned K) -> const ByteFacts & {
      return Bytes.slot(FirstSlot[A] + K);
    };
    if (R.K == Instr::Kind::Store) {
      bool AnyRead = false;
      for (unsigned K = 0; K < R.Access.Width && !AnyRead; ++K)
        AnyRead = ByteAt(K).Read;
      if (!AnyRead)
        Out.Lints.push_back(
            {LintKind::DeadStore, static_cast<int>(R.Thread),
             static_cast<int>(R.PreIdx),
             accessText(R) + ": stored bytes are never read by any load; "
                             "the store cannot affect any outcome"});
    }
    if (R.isRead()) {
      // Covered: some *other* write reaches a byte of the range, or a
      // nonzero initial byte does (an RMW's own write cannot feed its own
      // read). An entirely uncovered read always observes 0.
      bool Covered = false;
      unsigned SelfWrites = R.isWrite() ? 1u : 0u;
      for (unsigned K = 0; K < R.Access.Width && !Covered; ++K)
        Covered = ByteAt(K).Writers > SelfWrites || ByteAt(K).Init != 0;
      if (!Covered)
        Out.Lints.push_back(
            {LintKind::UncoveredRead, static_cast<int>(R.Thread),
             static_cast<int>(R.PreIdx),
             accessText(R) + ": no write or init covers these bytes; the "
                             "read always observes 0"});
    }
  }
}

void jsmm::analysis::detail::lintDuplicateThreads(
    const ThreadSymmetry &Sym, StaticClassification &Out) {
  for (size_t C = 0; C < Sym.Classes.size(); ++C) {
    const std::vector<unsigned> &Members = Sym.Classes[C];
    std::string List;
    for (unsigned M : Members)
      List += (List.empty() ? "" : ", ") + std::to_string(M);
    Out.Lints.push_back(
        {LintKind::DuplicateThread, static_cast<int>(Members[1]), -1,
         "threads " + List + " have interchangeable bodies (" +
             (Sym.Exact[C] ? "identical statements"
                           : "identical up to private-byte renaming") +
             "); duplicates add enumeration cost without new behaviours"});
  }
}

std::vector<LintDiag> jsmm::analysis::fenceLints(const CompiledTarget &CT) {
  // Fences that order nothing: no same-thread memory access on one side.
  std::vector<LintDiag> Out;
  for (unsigned T = 0; T < CT.Threads.size(); ++T) {
    const std::vector<TargetInstr> &Body = CT.Threads[T];
    for (unsigned I = 0; I < Body.size(); ++I) {
      if (Body[I].Kind != TKind::Fence)
        continue;
      bool Before = false, After = false;
      for (unsigned J = 0; J < I && !Before; ++J)
        Before = Body[J].Kind != TKind::Fence;
      for (unsigned J = I + 1; J < Body.size() && !After; ++J)
        After = Body[J].Kind != TKind::Fence;
      if (Before && After)
        continue;
      Out.push_back(
          {LintKind::RedundantFence, static_cast<int>(T),
           static_cast<int>(I),
           std::string(targetFenceName(Body[I].Fence)) +
               ": no memory access " +
               (Before ? "after" : (After ? "before" : "on either side of")) +
               " this fence on its thread; it orders nothing"});
    }
  }
  return Out;
}
