//===- targets/TargetCompile.cpp ------------------------------------------===//

#include "targets/TargetCompile.h"

#include "engine/ExecutionEngine.h"

#include <algorithm>
#include <map>

using namespace jsmm;

const char *jsmm::targetArchName(TargetArch A) {
  switch (A) {
  case TargetArch::X86:
    return "x86-TSO";
  case TargetArch::ArmV8:
    return "ARMv8";
  case TargetArch::ArmV7:
    return "ARMv7";
  case TargetArch::Power:
    return "Power";
  case TargetArch::RiscV:
    return "RISC-V";
  case TargetArch::ImmLite:
    return "ImmLite";
  }
  return "?";
}

namespace {

TargetInstr fenceInstr(TFence F) {
  TargetInstr I;
  I.Kind = TKind::Fence;
  I.Fence = F;
  return I;
}

} // namespace

CompiledTarget jsmm::compileUni(const UniProgram &P, TargetArch Arch) {
  CompiledTarget CT;
  CT.Arch = Arch;
  CT.NumLocs = P.numLocs();
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    CT.Threads.emplace_back();
    std::vector<TargetInstr> &Out = CT.Threads.back();
    for (const UniInstr &I : P.threadBody(T)) {
      int Src = static_cast<int>(CT.Sources.size());
      CT.Sources.push_back({static_cast<int>(T), I.Ord, I.K, I.Loc, I.Value,
                            I.Dst});
      bool SC = I.Ord == Mode::SeqCst;
      TargetInstr A;
      A.Loc = I.Loc;
      A.Value = I.Value;
      A.SourceIdx = Src;
      A.DstReg = I.Dst;
      switch (I.K) {
      case UniInstr::Kind::Load:
        A.Kind = TKind::Read;
        if (!SC) {
          Out.push_back(A);
          break;
        }
        switch (Arch) {
        case TargetArch::X86:
          Out.push_back(A);
          break;
        case TargetArch::ArmV8:
          A.Acq = true;
          Out.push_back(A);
          break;
        case TargetArch::ArmV7:
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::DmbV7));
          break;
        case TargetArch::Power:
          Out.push_back(fenceInstr(TFence::Sync));
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::CtrlIsync));
          break;
        case TargetArch::RiscV:
          Out.push_back(fenceInstr(TFence::FenceRWRW));
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::FenceRRW));
          break;
        case TargetArch::ImmLite:
          A.Sc = true;
          Out.push_back(A);
          break;
        }
        break;
      case UniInstr::Kind::Store:
        A.Kind = TKind::Write;
        if (!SC) {
          Out.push_back(A);
          break;
        }
        switch (Arch) {
        case TargetArch::X86:
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::MFence));
          break;
        case TargetArch::ArmV8:
          A.Rel = true;
          Out.push_back(A);
          break;
        case TargetArch::ArmV7:
          Out.push_back(fenceInstr(TFence::DmbV7));
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::DmbV7));
          break;
        case TargetArch::Power:
          Out.push_back(fenceInstr(TFence::Sync));
          Out.push_back(A);
          break;
        case TargetArch::RiscV:
          Out.push_back(fenceInstr(TFence::FenceRWW));
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::FenceRWRW));
          break;
        case TargetArch::ImmLite:
          A.Sc = true;
          Out.push_back(A);
          break;
        }
        break;
      case UniInstr::Kind::Rmw:
        A.Kind = TKind::Rmw;
        switch (Arch) {
        case TargetArch::X86: // lock xchg: fully fenced by the model
          Out.push_back(A);
          break;
        case TargetArch::ArmV8:
          A.Acq = A.Rel = true;
          Out.push_back(A);
          break;
        case TargetArch::ArmV7:
          Out.push_back(fenceInstr(TFence::DmbV7));
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::DmbV7));
          break;
        case TargetArch::Power:
          Out.push_back(fenceInstr(TFence::Sync));
          Out.push_back(A);
          Out.push_back(fenceInstr(TFence::CtrlIsync));
          break;
        case TargetArch::RiscV:
          A.Acq = A.Rel = true; // amoswap.aq.rl
          Out.push_back(A);
          break;
        case TargetArch::ImmLite:
          A.Sc = true;
          Out.push_back(A);
          break;
        }
        break;
      }
    }
  }
  return CT;
}

std::vector<TargetEvent>
jsmm::formEvents(const CompiledTarget &CT,
                 std::map<EventId, unsigned> *RegOfEvent) {
  std::vector<bool> Read(CT.NumLocs, false);
  for (const std::vector<TargetInstr> &Thread : CT.Threads)
    for (const TargetInstr &I : Thread)
      if (I.Kind == TKind::Read || I.Kind == TKind::Rmw)
        Read[I.Loc] = true;
  std::vector<TargetEvent> Seq;
  EventId Next = 0;
  for (unsigned L = 0; L < CT.NumLocs; ++L)
    if (Read[L]) {
      TargetEvent &Init = Seq.emplace_back();
      Init.Id = Next++;
      Init.Kind = TKind::Write;
      Init.Loc = L;
      Init.IsInit = true;
    }
  for (unsigned T = 0; T < CT.Threads.size(); ++T)
    for (const TargetInstr &I : CT.Threads[T]) {
      TargetEvent &E = Seq.emplace_back();
      E.Thread = static_cast<int>(T);
      E.Kind = I.Kind;
      E.Loc = I.Loc;
      E.WriteVal = I.Value;
      E.Acq = I.Acq;
      E.Rel = I.Rel;
      E.Sc = I.Sc;
      E.Fence = I.Fence;
      E.SourceIdx = I.SourceIdx;
      if (!E.isAccess())
        continue;
      E.Id = Next++;
      if (E.isRead() && RegOfEvent)
        (*RegOfEvent)[E.Id] = I.DstReg;
    }
  return Seq;
}

UniExecution jsmm::translateTargetToUni(const TargetExecution &X,
                                        const CompiledTarget &CT) {
  std::vector<int> UniOfTarget(X.numEvents(), -1);
  std::vector<UniEvent> Events;
  // Init events carry over one-to-one (they are the per-location inits).
  for (const TargetEvent &E : X.Events) {
    if (!E.IsInit)
      continue;
    UniOfTarget[E.Id] = static_cast<int>(Events.size());
    Events.push_back(makeUniInit(static_cast<EventId>(Events.size()), E.Loc));
  }
  for (const TargetEvent &E : X.Events) {
    if (E.IsInit || E.SourceIdx < 0 || !E.isAccess())
      continue;
    const CompiledTarget::Source &S = CT.Sources[E.SourceIdx];
    UniEvent U;
    U.Id = static_cast<EventId>(Events.size());
    U.Thread = S.Thread;
    U.Ord = S.Ord;
    U.Loc = S.Loc;
    U.Reads = E.isRead();
    U.Writes = E.isWrite();
    U.ReadVal = E.ReadVal;
    U.WriteVal = E.WriteVal;
    UniOfTarget[E.Id] = static_cast<int>(U.Id);
    Events.push_back(U);
  }
  UniExecution Uni(std::move(Events));
  X.Po.forEachPair([&](unsigned A, unsigned B) {
    if (UniOfTarget[A] >= 0 && UniOfTarget[B] >= 0)
      Uni.Sb.set(UniOfTarget[A], UniOfTarget[B]);
  });
  X.Rf.forEachPair([&](unsigned W, unsigned R) {
    assert(UniOfTarget[W] >= 0 && UniOfTarget[R] >= 0 &&
           "rf endpoints must be access events");
    Uni.Rf.set(UniOfTarget[W], UniOfTarget[R]);
  });
  return Uni;
}

TargetCheckResult jsmm::checkUniCompilation(const UniProgram &P,
                                            TargetArch Arch) {
  TargetCheckResult Result;
  CompiledTarget CT = compileUni(P, Arch);
  ExecutionEngine().forEachTargetCandidate(CT, [&](const TargetExecution &X,
                                                  const Outcome &O) {
    (void)O;
    ++Result.Candidates;
    if (!isTargetConsistent(X, Arch))
      return true;
    ++Result.Consistent;
    UniExecution Uni = translateTargetToUni(X, CT);
    if (isUniValidForSomeTot(Uni))
      ++Result.JsValid;
    else if (!Result.FirstFailure)
      Result.FirstFailure = X;
    return true;
  });
  return Result;
}
