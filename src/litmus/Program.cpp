//===- litmus/Program.cpp -------------------------------------------------===//

#include "litmus/Program.h"

#include <cassert>
#include <stdexcept>
#include <string>

using namespace jsmm;

ThreadBuilder Program::thread() {
  Threads.emplace_back();
  NextReg.push_back(0);
  return ThreadBuilder(*this, static_cast<unsigned>(Threads.size() - 1));
}

std::vector<Instr> &ThreadBuilder::body() {
  return Into ? *Into : P.Threads[ThreadIndex];
}

void ThreadBuilder::checkRange(const Acc &A) const {
  const std::vector<unsigned> &Sizes = P.BufferSizes;
  if (A.Block >= Sizes.size())
    throw std::out_of_range("access to undeclared buffer " +
                            std::to_string(A.Block));
  if (A.Offset > Sizes[A.Block] || A.Width > Sizes[A.Block] - A.Offset)
    throw std::out_of_range(
        "access [" + std::to_string(A.Offset) + ", " +
        std::to_string(static_cast<uint64_t>(A.Offset) + A.Width) +
        ") is outside the " + std::to_string(Sizes[A.Block]) +
        "-byte buffer " + std::to_string(A.Block));
}

Reg ThreadBuilder::load(Acc A) {
  checkRange(A);
  Instr I;
  I.K = Instr::Kind::Load;
  I.Access = A;
  I.Dst = P.NextReg[ThreadIndex]++;
  body().push_back(I);
  return Reg{static_cast<int>(ThreadIndex), I.Dst};
}

ThreadBuilder &ThreadBuilder::store(Acc A, uint64_t Value) {
  checkRange(A);
  Instr I;
  I.K = Instr::Kind::Store;
  I.Access = A;
  I.Value = Value;
  body().push_back(I);
  return *this;
}

Reg ThreadBuilder::exchange(Acc A, uint64_t Value) {
  checkRange(A);
  Instr I;
  I.K = Instr::Kind::Rmw;
  I.Access = A.sc();
  I.Value = Value;
  I.Dst = P.NextReg[ThreadIndex]++;
  body().push_back(I);
  return Reg{static_cast<int>(ThreadIndex), I.Dst};
}

ThreadBuilder &
ThreadBuilder::ifEq(Reg R, uint64_t Value,
                    const std::function<void(ThreadBuilder &)> &Body) {
  assert(R.Thread == static_cast<int>(ThreadIndex) &&
         "conditional on another thread's register");
  Instr I;
  I.K = Instr::Kind::IfEq;
  I.CondReg = R.Index;
  I.Value = Value;
  body().push_back(I);
  Instr &Placed = body().back();
  ThreadBuilder Nested(P, ThreadIndex, &Placed.Body);
  Body(Nested);
  return *this;
}

ThreadBuilder &
ThreadBuilder::ifNe(Reg R, uint64_t Value,
                    const std::function<void(ThreadBuilder &)> &Body) {
  assert(R.Thread == static_cast<int>(ThreadIndex) &&
         "conditional on another thread's register");
  Instr I;
  I.K = Instr::Kind::IfNe;
  I.CondReg = R.Index;
  I.Value = Value;
  body().push_back(I);
  Instr &Placed = body().back();
  ThreadBuilder Nested(P, ThreadIndex, &Placed.Body);
  Body(Nested);
  return *this;
}
