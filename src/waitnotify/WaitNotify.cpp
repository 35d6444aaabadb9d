//===- waitnotify/WaitNotify.cpp ------------------------------------------===//

#include "waitnotify/WaitNotify.h"

#include "engine/ExecutionEngine.h"
#include "support/Str.h"

#include <map>

using namespace jsmm;

bool WnResult::allowsStuckThread() const {
  for (const std::string &O : AllowedOutcomes)
    if (O.find("stuck") != std::string::npos)
      return true;
  return false;
}

namespace {

constexpr unsigned AccessWidth = 4; // all §7 accesses are 32-bit

/// A pending read-value constraint from a Wait's compare step.
struct WaitConstraint {
  EventId Read;
  uint64_t Expected;
  bool MustEqual; ///< true: suspended (value matched); false: fell through
};

/// A fully scheduled thread-local execution, before rbf justification.
struct Schedule {
  std::vector<Event> Events;
  std::vector<std::vector<EventId>> PerThread; ///< emission order per thread
  std::vector<std::pair<EventId, EventId>> WakeEdges; ///< notify -> Ewake
  std::vector<std::pair<EventId, EventId>> CsEdges;   ///< exit -> entry
  std::vector<WaitConstraint> Constraints;
  std::map<std::pair<int, unsigned>, uint64_t> NotifyCounts;
  std::vector<int> StuckThreads;
  std::map<EventId, std::pair<int, unsigned>> LoadRegs;
};

/// Enumerates the interleavings of the wait-queue semantics.
class Scheduler {
public:
  Scheduler(const WnProgram &P, const std::function<void(Schedule &)> &Emit)
      : P(P), Emit(Emit) {}

  void run() {
    State S;
    S.Pc.assign(P.Threads.size(), 0);
    S.Blocked.assign(P.Threads.size(), false);
    S.Sched.Events.push_back(makeInit(0, P.BufferSize));
    S.Sched.PerThread.resize(P.Threads.size());
    step(S);
  }

private:
  struct State {
    Schedule Sched;
    std::vector<size_t> Pc;
    std::vector<bool> Blocked;
    std::vector<unsigned> BlockedLoc{};
    std::vector<EventId> CsExits;

    State() { BlockedLoc.resize(64, 0); }
  };

  void step(State S) { // by value: cheap copies at litmus size
    bool AnyRunnable = false;
    for (unsigned T = 0; T < P.Threads.size(); ++T) {
      if (S.Blocked[T] || S.Pc[T] >= P.Threads[T].size())
        continue;
      AnyRunnable = true;
      execute(S, T);
    }
    if (!AnyRunnable) {
      for (unsigned T = 0; T < P.Threads.size(); ++T)
        if (S.Blocked[T])
          S.Sched.StuckThreads.push_back(static_cast<int>(T));
      Emit(S.Sched);
    }
  }

  Event &emitEvent(State &S, unsigned T, Event E) {
    E.Id = static_cast<EventId>(S.Sched.Events.size());
    E.Thread = static_cast<int>(T);
    S.Sched.Events.push_back(E);
    S.Sched.PerThread[T].push_back(E.Id);
    return S.Sched.Events.back();
  }

  void enterCriticalSection(State &S, EventId Entry) {
    for (EventId Exit : S.CsExits)
      S.Sched.CsEdges.push_back({Exit, Entry});
    S.CsExits.push_back(Entry);
  }

  void execute(const State &Base, unsigned T) {
    const WnOp &Op = P.Threads[T][Base.Pc[T]];
    switch (Op.K) {
    case WnOp::Kind::Load: {
      State S = Base;
      Event E = makeRead(0, 0, Op.Ord, Op.Loc, AccessWidth, 0);
      EventId Id = emitEvent(S, T, E).Id;
      S.Sched.LoadRegs[Id] = {static_cast<int>(T), Op.Dst};
      ++S.Pc[T];
      step(std::move(S));
      return;
    }
    case WnOp::Kind::Store: {
      State S = Base;
      emitEvent(S, T, makeWrite(0, 0, Op.Ord, Op.Loc, AccessWidth, Op.Value));
      ++S.Pc[T];
      step(std::move(S));
      return;
    }
    case WnOp::Kind::Wait: {
      // Fall-through case: the read does not see the expected value.
      {
        State S = Base;
        Event E = makeRead(0, 0, Mode::SeqCst, Op.Loc, AccessWidth, 0);
        EventId Id = emitEvent(S, T, E).Id;
        enterCriticalSection(S, Id);
        S.Sched.Constraints.push_back({Id, Op.Expected, false});
        ++S.Pc[T];
        step(std::move(S));
      }
      // Suspension case: the read sees the expected value and blocks.
      {
        State S = Base;
        Event E = makeRead(0, 0, Mode::SeqCst, Op.Loc, AccessWidth, 0);
        EventId Id = emitEvent(S, T, E).Id;
        enterCriticalSection(S, Id);
        S.Sched.Constraints.push_back({Id, Op.Expected, true});
        S.Blocked[T] = true;
        S.BlockedLoc[T] = Op.Loc;
        ++S.Pc[T]; // resumes past the wait once woken
        step(std::move(S));
      }
      return;
    }
    case WnOp::Kind::Notify: {
      State S = Base;
      // Enotify: a footprint-less event.
      Event N;
      N.Ord = Mode::SeqCst;
      N.Index = Op.Loc;
      EventId NotifyId = emitEvent(S, T, N).Id;
      enterCriticalSection(S, NotifyId);
      uint64_t Woken = 0;
      for (unsigned W = 0; W < P.Threads.size(); ++W) {
        if (!S.Blocked[W] || S.BlockedLoc[W] != Op.Loc)
          continue;
        ++Woken;
        Event Wake;
        Wake.Ord = Mode::SeqCst;
        Wake.Index = Op.Loc;
        EventId WakeId = emitEvent(S, W, Wake).Id;
        S.Sched.WakeEdges.push_back({NotifyId, WakeId});
        S.Blocked[W] = false;
      }
      S.Sched.NotifyCounts[{static_cast<int>(T), Op.Dst}] = Woken;
      ++S.Pc[T];
      step(std::move(S));
      return;
    }
    }
  }

  const WnProgram &P;
  const std::function<void(Schedule &)> &Emit;
};

} // namespace

WnResult jsmm::enumerateWaitNotify(const WnProgram &P, ModelSpec Spec,
                                   bool CriticalSectionAsw,
                                   SolverConfig Solver) {
  WnResult Result;
  const TotSolver &Tot = totSolver(Solver);
  // Justifies the reads of each schedule and accumulates the allowed
  // outcomes. Named so the std::function outlives the Scheduler, which
  // keeps a reference to it.
  std::function<void(Schedule &)> Consume = [&](Schedule &S) {
    ++Result.Schedules;
    CandidateExecution CE(std::move(S.Events));
    for (const std::vector<EventId> &Seq : S.PerThread)
      for (size_t I = 0; I < Seq.size(); ++I)
        for (size_t J = I + 1; J < Seq.size(); ++J)
          CE.Sb.set(Seq[I], Seq[J]);
    if (CriticalSectionAsw) {
      for (const auto &[A, B] : S.WakeEdges)
        CE.Asw.set(A, B);
      for (const auto &[A, B] : S.CsEdges)
        CE.Asw.set(A, B);
    }
    ExecutionEngine::forEachJustification(
        CE,
        [&](const Event &R) {
          uint64_t Value = valueOfBytes(R.ReadBytes);
          for (const WaitConstraint &C : S.Constraints)
            if (C.Read == R.Id && C.MustEqual != (Value == C.Expected))
              return false;
          return true;
        },
        [&](const CandidateExecution &X) {
          ++Result.Candidates;
          if (!isValidForSomeTot(X, Spec, /*TotOut=*/nullptr, Tot))
            return true;
          ++Result.ValidCandidates;
          Outcome O;
          for (const auto &[Id, Reg] : S.LoadRegs)
            O.add(Reg.first, Reg.second, valueOfBytes(X.Events[Id].ReadBytes));
          for (const auto &[Reg, Count] : S.NotifyCounts)
            O.add(Reg.first, Reg.second, Count);
          std::string Key = O.toString();
          for (int T : S.StuckThreads)
            Key += " T" + std::to_string(T) + ":stuck";
          Result.AllowedOutcomes.insert(Key);
          return true;
        });
  };
  Scheduler(P, Consume).run();
  return Result;
}
