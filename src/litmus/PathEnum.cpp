//===- litmus/PathEnum.cpp ------------------------------------------------===//

#include "litmus/PathEnum.h"

using namespace jsmm;

namespace {

/// \returns true if an access already on \p Path assigns register \p Reg.
bool assignsReg(const ThreadPath &Path, unsigned Reg) {
  for (const Instr *I : Path.Accesses)
    if (I->K != Instr::Kind::Store && I->Dst == Reg)
      return true;
  return false;
}

void walk(const std::vector<Instr> &Body, size_t Pos, ThreadPath &Current,
          std::vector<ThreadPath> &Out,
          const std::function<void(ThreadPath &)> &Continue) {
  if (Pos == Body.size()) {
    Continue(Current);
    return;
  }
  const Instr &I = Body[Pos];
  switch (I.K) {
  case Instr::Kind::Load:
  case Instr::Kind::Store:
  case Instr::Kind::Rmw:
    Current.Accesses.push_back(&I);
    walk(Body, Pos + 1, Current, Out, Continue);
    Current.Accesses.pop_back();
    return;
  case Instr::Kind::IfEq:
  case Instr::Kind::IfNe: {
    bool TakenMeansEqual = I.K == Instr::Kind::IfEq;
    auto Taken = [&] {
      walk(I.Body, 0, Current, Out, [&](ThreadPath &Path) {
        walk(Body, Pos + 1, Path, Out, Continue);
      });
    };
    // A register nothing on the path has assigned yet holds 0 (as in the
    // interleaving semantics), so the branch is decided here: unfold only
    // the side 0 satisfies, with no constraint. A constraint would be
    // vacuous, since only an assigning read discharges one.
    if (!assignsReg(Current, I.CondReg)) {
      if ((I.Value == 0) == TakenMeansEqual)
        Taken();
      else
        walk(Body, Pos + 1, Current, Out, Continue);
      return;
    }
    // Taken branch: constrain the register, unfold the nested body, then
    // continue with the rest of this body.
    Current.Constraints.push_back({I.CondReg, I.Value, TakenMeansEqual});
    Taken();
    Current.Constraints.pop_back();
    // Skipped branch: the negated constraint.
    Current.Constraints.push_back({I.CondReg, I.Value, !TakenMeansEqual});
    walk(Body, Pos + 1, Current, Out, Continue);
    Current.Constraints.pop_back();
    return;
  }
  }
}

} // namespace

std::vector<ThreadPath>
jsmm::enumeratePaths(const std::vector<Instr> &Body) {
  std::vector<ThreadPath> Out;
  ThreadPath Current;
  walk(Body, 0, Current, Out,
       [&](ThreadPath &Path) { Out.push_back(Path); });
  return Out;
}

unsigned jsmm::maxPathAccesses(const std::vector<Instr> &Body) {
  unsigned Count = 0;
  for (const Instr &I : Body) {
    switch (I.K) {
    case Instr::Kind::Load:
    case Instr::Kind::Store:
    case Instr::Kind::Rmw:
      ++Count;
      break;
    case Instr::Kind::IfEq:
    case Instr::Kind::IfNe:
      // Taking the branch performs the nested accesses; skipping performs
      // none, so the taken side is the per-conditional maximum.
      Count += maxPathAccesses(I.Body);
      break;
    }
  }
  return Count;
}

unsigned jsmm::programEventUpperBound(const Program &P) {
  unsigned Bound = static_cast<unsigned>(P.bufferSizes().size());
  for (unsigned T = 0; T < P.numThreads(); ++T)
    Bound += maxPathAccesses(P.threadBody(T));
  return Bound;
}

bool jsmm::constraintsAllow(const ThreadPath &Path, unsigned Reg,
                            uint64_t Value) {
  for (const RegConstraint &C : Path.Constraints) {
    if (C.Reg != Reg)
      continue;
    if (C.MustEqual != (Value == C.Value))
      return false;
  }
  return true;
}
