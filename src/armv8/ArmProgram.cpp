//===- armv8/ArmProgram.cpp -----------------------------------------------===//

#include "armv8/ArmProgram.h"

#include <cassert>

using namespace jsmm;

ArmThreadBuilder ArmProgram::thread() {
  Threads.emplace_back();
  NextReg.push_back(0);
  return ArmThreadBuilder(*this, static_cast<unsigned>(Threads.size() - 1));
}

unsigned ArmProgram::addRawThread(std::vector<ArmInstr> Body) {
  Threads.push_back(std::move(Body));
  // Raw threads manage their own register numbering; reserve a generous
  // range so a later builder on this program does not collide.
  NextReg.push_back(4096);
  return static_cast<unsigned>(Threads.size() - 1);
}

std::vector<ArmInstr> &ArmThreadBuilder::body() {
  return Into ? *Into : P.Threads[ThreadIndex];
}

Reg ArmThreadBuilder::load(unsigned Offset, unsigned Width, bool Acquire,
                           bool Exclusive, unsigned Block, int SourceTag,
                           int RmwTag) {
  ArmInstr I;
  I.K = ArmInstr::Kind::Load;
  I.Block = Block;
  I.Offset = Offset;
  I.Width = Width;
  I.Acquire = Acquire;
  I.Exclusive = Exclusive;
  I.Dst = P.NextReg[ThreadIndex]++;
  I.SourceTag = SourceTag;
  I.RmwTag = RmwTag;
  body().push_back(I);
  return Reg{static_cast<int>(ThreadIndex), I.Dst};
}

ArmThreadBuilder &ArmThreadBuilder::store(unsigned Offset, unsigned Width,
                                          uint64_t Value, bool Release,
                                          bool Exclusive, unsigned Block,
                                          int SourceTag, int RmwTag) {
  ArmInstr I;
  I.K = ArmInstr::Kind::Store;
  I.Block = Block;
  I.Offset = Offset;
  I.Width = Width;
  I.Value = Value;
  I.Release = Release;
  I.Exclusive = Exclusive;
  I.SourceTag = SourceTag;
  I.RmwTag = RmwTag;
  body().push_back(I);
  return *this;
}

ArmThreadBuilder &ArmThreadBuilder::fence(ArmInstr::Kind Kind) {
  assert((Kind == ArmInstr::Kind::DmbFull || Kind == ArmInstr::Kind::DmbLd ||
          Kind == ArmInstr::Kind::DmbSt || Kind == ArmInstr::Kind::Isb) &&
         "fence() expects a barrier kind");
  ArmInstr I;
  I.K = Kind;
  body().push_back(I);
  return *this;
}

ArmThreadBuilder &
ArmThreadBuilder::ifEq(Reg R, uint64_t Value,
                       const std::function<void(ArmThreadBuilder &)> &Body) {
  assert(R.Thread == static_cast<int>(ThreadIndex) &&
         "conditional on another thread's register");
  ArmInstr I;
  I.K = ArmInstr::Kind::IfEq;
  I.CondReg = R.Index;
  I.Value = Value;
  body().push_back(I);
  ArmInstr &Placed = body().back();
  ArmThreadBuilder Nested(P, ThreadIndex, &Placed.Body);
  Body(Nested);
  return *this;
}

ArmThreadBuilder &
ArmThreadBuilder::ifNe(Reg R, uint64_t Value,
                       const std::function<void(ArmThreadBuilder &)> &Body) {
  assert(R.Thread == static_cast<int>(ThreadIndex) &&
         "conditional on another thread's register");
  ArmInstr I;
  I.K = ArmInstr::Kind::IfNe;
  I.CondReg = R.Index;
  I.Value = Value;
  body().push_back(I);
  ArmInstr &Placed = body().back();
  ArmThreadBuilder Nested(P, ThreadIndex, &Placed.Body);
  Body(Nested);
  return *this;
}

ArmThreadBuilder &ArmThreadBuilder::addrDep(Reg R) {
  assert(!body().empty() && "no access to attach the dependency to");
  body().back().AddrDepOn = static_cast<int>(R.Index);
  return *this;
}

ArmThreadBuilder &ArmThreadBuilder::dataDep(Reg R) {
  assert(!body().empty() && "no access to attach the dependency to");
  body().back().DataDepOn = static_cast<int>(R.Index);
  return *this;
}

ArmThreadBuilder &ArmThreadBuilder::ctrlDep(Reg R) {
  assert(!body().empty() && "no access to attach the dependency to");
  body().back().CtrlDepOn = static_cast<int>(R.Index);
  return *this;
}

namespace {

/// \returns true if a load already on \p Path assigns register \p Reg.
bool armAssignsReg(const ArmThreadPath &Path, unsigned Reg) {
  for (const ArmPathElem &E : Path.Elems)
    if (E.I->K == ArmInstr::Kind::Load && E.I->Dst == Reg)
      return true;
  return false;
}

void walkArm(const std::vector<ArmInstr> &Body, size_t Pos,
             ArmThreadPath &Current, uint64_t CtrlRegs,
             const std::function<void(ArmThreadPath &, uint64_t)> &Continue) {
  if (Pos == Body.size()) {
    Continue(Current, CtrlRegs);
    return;
  }
  const ArmInstr &I = Body[Pos];
  switch (I.K) {
  case ArmInstr::Kind::Load:
  case ArmInstr::Kind::Store:
  case ArmInstr::Kind::DmbFull:
  case ArmInstr::Kind::DmbLd:
  case ArmInstr::Kind::DmbSt:
  case ArmInstr::Kind::Isb:
    Current.Elems.push_back({&I, CtrlRegs});
    walkArm(Body, Pos + 1, Current, CtrlRegs, Continue);
    Current.Elems.pop_back();
    return;
  case ArmInstr::Kind::IfEq:
  case ArmInstr::Kind::IfNe: {
    bool TakenMeansEqual = I.K == ArmInstr::Kind::IfEq;
    uint64_t NewCtrl = CtrlRegs | (uint64_t(1) << I.CondReg);
    auto Taken = [&] {
      walkArm(I.Body, 0, Current, NewCtrl,
              [&](ArmThreadPath &Path, uint64_t Ctrl) {
                walkArm(Body, Pos + 1, Path, Ctrl, Continue);
              });
    };
    // An unassigned register holds 0: decide the branch now, as
    // enumeratePaths does (a constraint on it would be vacuous).
    if (!armAssignsReg(Current, I.CondReg)) {
      if ((I.Value == 0) == TakenMeansEqual)
        Taken();
      else
        walkArm(Body, Pos + 1, Current, NewCtrl, Continue);
      return;
    }
    // Taken branch.
    Current.Constraints.push_back({I.CondReg, I.Value, TakenMeansEqual});
    Taken();
    Current.Constraints.pop_back();
    // Skipped branch: later instructions remain control-dependent on the
    // scrutinised register.
    Current.Constraints.push_back({I.CondReg, I.Value, !TakenMeansEqual});
    walkArm(Body, Pos + 1, Current, NewCtrl, Continue);
    Current.Constraints.pop_back();
    return;
  }
  }
}

} // namespace

std::vector<ArmThreadPath>
jsmm::enumerateArmPaths(const std::vector<ArmInstr> &Body) {
  std::vector<ArmThreadPath> Out;
  ArmThreadPath Current;
  walkArm(Body, 0, Current, 0,
          [&](ArmThreadPath &Path, uint64_t) { Out.push_back(Path); });
  return Out;
}

bool jsmm::armConstraintsAllow(const ArmThreadPath &Path, unsigned Reg,
                               uint64_t Value) {
  for (const RegConstraint &C : Path.Constraints) {
    if (C.Reg != Reg)
      continue;
    if (C.MustEqual != (Value == C.Value))
      return false;
  }
  return true;
}

unsigned jsmm::maxArmPathEvents(const std::vector<ArmInstr> &Body) {
  unsigned Count = 0;
  for (const ArmInstr &I : Body) {
    switch (I.K) {
    case ArmInstr::Kind::Load:
    case ArmInstr::Kind::Store:
    case ArmInstr::Kind::DmbFull:
    case ArmInstr::Kind::DmbLd:
    case ArmInstr::Kind::DmbSt:
    case ArmInstr::Kind::Isb:
      ++Count;
      break;
    case ArmInstr::Kind::IfEq:
    case ArmInstr::Kind::IfNe:
      Count += maxArmPathEvents(I.Body);
      break;
    }
  }
  return Count;
}

unsigned jsmm::armProgramEventUpperBound(const ArmProgram &P) {
  unsigned Bound = static_cast<unsigned>(P.bufferSizes().size());
  for (unsigned T = 0; T < P.numThreads(); ++T)
    Bound += maxArmPathEvents(P.threadBody(T));
  return Bound;
}
