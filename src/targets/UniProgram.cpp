//===- targets/UniProgram.cpp ---------------------------------------------===//

#include "targets/UniProgram.h"

#include <algorithm>
#include <iterator>
#include <map>

using namespace jsmm;

namespace {

class UniBuilder {
public:
  UniBuilder(
      const UniProgram &P,
      const std::function<bool(const UniExecution &, const Outcome &)> &Visit)
      : P(P), Visit(Visit) {}

  bool run() {
    std::vector<UniEvent> Events;
    for (unsigned L = 0; L < P.numLocs(); ++L)
      Events.push_back(
          makeUniInit(static_cast<EventId>(Events.size()), L));
    std::vector<std::vector<EventId>> ThreadEvents(P.numThreads());
    for (unsigned T = 0; T < P.numThreads(); ++T) {
      for (const UniInstr &I : P.threadBody(T)) {
        EventId Id = static_cast<EventId>(Events.size());
        UniEvent E;
        switch (I.K) {
        case UniInstr::Kind::Load:
          E = makeUniRead(Id, static_cast<int>(T), I.Ord, I.Loc, 0);
          RegOfEvent[Id] = I.Dst;
          break;
        case UniInstr::Kind::Store:
          E = makeUniWrite(Id, static_cast<int>(T), I.Ord, I.Loc, I.Value);
          break;
        case UniInstr::Kind::Rmw:
          E = makeUniRMW(Id, static_cast<int>(T), I.Loc, 0, I.Value);
          RegOfEvent[Id] = I.Dst;
          break;
        }
        Events.push_back(E);
        ThreadEvents[T].push_back(Id);
      }
    }
    X = UniExecution(std::move(Events));
    for (const std::vector<EventId> &Seq : ThreadEvents)
      for (size_t I = 0; I < Seq.size(); ++I)
        for (size_t J = I + 1; J < Seq.size(); ++J)
          X.Sb.set(Seq[I], Seq[J]);
    for (const UniEvent &E : X.Events)
      if (E.isRead())
        Reads.push_back(E.Id);
    return justify(0);
  }

private:
  bool justify(size_t ReadIdx) {
    if (ReadIdx == Reads.size()) {
      Outcome O;
      for (const auto &[Id, Reg] : RegOfEvent)
        O.add(X.Events[Id].Thread, Reg, X.Events[Id].ReadVal);
      return Visit(X, O);
    }
    EventId R = Reads[ReadIdx];
    for (const UniEvent &W : X.Events) {
      if (!W.isWrite() || W.Id == R || W.Loc != X.Events[R].Loc)
        continue;
      X.Rf.set(W.Id, R);
      X.Events[R].ReadVal = W.WriteVal;
      bool Continue = justify(ReadIdx + 1);
      X.Rf.clear(W.Id, R);
      if (!Continue)
        return false;
    }
    return true;
  }

  const UniProgram &P;
  const std::function<bool(const UniExecution &, const Outcome &)> &Visit;
  UniExecution X;
  std::vector<EventId> Reads;
  std::map<EventId, unsigned> RegOfEvent;
};

} // namespace

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

bool jsmm::forEachUniExecution(
    const UniProgram &P,
    const std::function<bool(const UniExecution &, const Outcome &)> &Visit) {
  UniBuilder B(P, Visit);
  return B.run();
}

UniEnumerationResult jsmm::enumerateUniOutcomes(const UniProgram &P) {
  UniEnumerationResult Result;
  forEachUniExecution(P, [&](const UniExecution &X, const Outcome &O) {
    ++Result.CandidatesConsidered;
    if (Result.Allowed.count(O))
      return true;
    Relation Tot;
    if (isUniValidForSomeTot(X, &Tot)) {
      UniExecution Witness = X;
      Witness.Tot = Tot;
      Result.Allowed.emplace(O, std::move(Witness));
    }
    return true;
  });
  return Result;
}

std::vector<Outcome> jsmm::uniAllowedOutcomes(const UniProgram &P) {
  std::map<Outcome, bool> Verdicts;
  forEachUniExecution(P, [&](const UniExecution &X, const Outcome &O) {
    auto [It, Inserted] = Verdicts.try_emplace(O, false);
    if (Inserted || !It->second)
      It->second = isUniValidForSomeTot(X);
    return true;
  });
  std::vector<Outcome> Out;
  for (const auto &[O, Allowed] : Verdicts)
    if (Allowed)
      Out.push_back(O);
  return Out;
}
