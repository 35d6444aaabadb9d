//===- targets/UniProgram.cpp ---------------------------------------------===//

#include "targets/UniProgram.h"

#include "engine/ExecutionEngine.h"

#include <algorithm>
#include <iterator>
#include <map>

using namespace jsmm;

std::optional<UniProgram> jsmm::uniFromProgram(const Program &P,
                                               std::string *Why) {
  auto Fail = [&](const std::string &Reason) {
    if (Why)
      *Why = Reason;
    return std::nullopt;
  };

  // The uni-size fragment (and the Thm 6.3 target pipeline behind it)
  // assumes zero-initialised cells; a litmus `init` directive takes the
  // program out of the fragment rather than silently dropping its bytes.
  if (P.hasNonZeroInit())
    return Fail("nonzero initial values are not expressible uni-size");

  // First pass: collect the cells and check the program stays inside the
  // uni-size fragment.
  std::map<std::pair<unsigned, unsigned>, unsigned> WidthOfCell;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    for (const Instr &I : P.threadBody(T)) {
      if (I.K == Instr::Kind::IfEq || I.K == Instr::Kind::IfNe)
        return Fail("control flow is not expressible uni-size");
      std::pair<unsigned, unsigned> Cell{I.Access.Block, I.Access.Offset};
      auto [It, Inserted] = WidthOfCell.emplace(Cell, I.Access.Width);
      if (!Inserted && It->second != I.Access.Width)
        return Fail("cell at block " + std::to_string(Cell.first) +
                    " offset " + std::to_string(Cell.second) +
                    " is accessed with two widths");
    }
  }
  // Distinct cells must not overlap (per block).
  for (auto A = WidthOfCell.begin(); A != WidthOfCell.end(); ++A) {
    auto B = std::next(A);
    if (B != WidthOfCell.end() && A->first.first == B->first.first &&
        A->first.second + A->second > B->first.second)
      return Fail("cells at offsets " + std::to_string(A->first.second) +
                  " and " + std::to_string(B->first.second) + " overlap");
  }

  std::map<std::pair<unsigned, unsigned>, unsigned> LocOfCell;
  for (const auto &[Cell, Width] : WidthOfCell) {
    (void)Width;
    unsigned Loc = static_cast<unsigned>(LocOfCell.size());
    LocOfCell.emplace(Cell, Loc);
  }

  UniProgram Out(static_cast<unsigned>(LocOfCell.size()));
  Out.Name = P.Name;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    unsigned UT = Out.thread();
    for (const Instr &I : P.threadBody(T)) {
      unsigned Loc = LocOfCell.at({I.Access.Block, I.Access.Offset});
      switch (I.K) {
      case Instr::Kind::Load:
        Out.load(UT, Loc, I.Access.Ord);
        break;
      case Instr::Kind::Store:
        Out.store(UT, Loc, I.Value, I.Access.Ord);
        break;
      case Instr::Kind::Rmw:
        Out.exchange(UT, Loc, I.Value);
        break;
      case Instr::Kind::IfEq:
      case Instr::Kind::IfNe:
        break; // rejected above
      }
    }
  }
  return Out;
}

Program jsmm::mixedFromUni(const UniProgram &P) {
  Program Out(4 * std::max(1u, P.numLocs()));
  Out.Name = P.Name;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    ThreadBuilder B = Out.thread();
    for (const UniInstr &I : P.threadBody(T)) {
      Acc A = Acc::u32(4 * I.Loc);
      if (I.Ord == Mode::SeqCst)
        A = A.sc();
      switch (I.K) {
      case UniInstr::Kind::Load:
        B.load(A);
        break;
      case UniInstr::Kind::Store:
        B.store(A, I.Value);
        break;
      case UniInstr::Kind::Rmw:
        B.exchange(A, I.Value);
        break;
      }
    }
  }
  return Out;
}

unsigned jsmm::uniProgramEventBound(const UniProgram &P) {
  unsigned Bound = P.numLocs();
  for (unsigned T = 0; T < P.numThreads(); ++T)
    Bound += static_cast<unsigned>(P.threadBody(T).size());
  return Bound;
}

std::vector<Outcome> jsmm::uniAllowedOutcomes(const UniProgram &P) {
  return ExecutionEngine().enumerateOutcomes({}, nullptr, &P)[0].Allowed;
}
