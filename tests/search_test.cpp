//===- tests/search_test.cpp - Counter-example search and deadness --------===//

#include "search/SkeletonSearch.h"

#include "compile/TotConstruction.h"
#include "exec/Enumerator.h"

#include "support/Str.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

using namespace jsmm;
using namespace jsmm::testutil;

TEST(Deadness, Fig6aIsSemanticallyDead) {
  EXPECT_TRUE(isSemanticallyDead(fig6aExecution(), ModelSpec::original()));
  EXPECT_FALSE(isSemanticallyDead(fig6aExecution(), ModelSpec::revised()));
}

TEST(Deadness, Fig11FalseCounterExampleIsNotDead) {
  // Fig. 11: W_SC(n) | W_Un(m); R_SC(n), with the read taking the SC
  // write's value but tot ordering the Un write between them. Invalid for
  // that tot under the original rule, but permuting tot rescues it.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 4, 2));
  Evs.push_back(makeRead(3, 1, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(2, 3);
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  // The "bad" tot: Init, W_SC, W_Un, R_SC.
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  EXPECT_FALSE(isValid(CE, ModelSpec::original()))
      << "the naive search would report this";
  EXPECT_FALSE(isSemanticallyDead(CE, ModelSpec::original()))
      << "but a different tot (W_Un first) makes it valid";
  EXPECT_FALSE(isSyntacticallyDeadCounterExample(CE, ModelSpec::original()))
      << "the syntactic criterion discards it too: W_SC -tot- W_Un is not "
         "hb-forced";
}

TEST(Deadness, SyntacticCriterionIsSoundButIncomplete) {
  // Our hb-forcing rendition of the syntactic criterion is sound (it only
  // certifies semantically dead executions) but incomplete: it cannot
  // certify Fig. 6a, whose critical tot edges are forced by semantic
  // entailment (the paper's "b must read 1" argument), not by hb alone.
  // The searches therefore default to the exact semantic criterion.
  CandidateExecution CE = fig6aExecution();
  EXPECT_TRUE(isSemanticallyDead(CE, ModelSpec::original()));
  EXPECT_FALSE(existsSyntacticallyDeadTot(CE, ModelSpec::original()));
}

TEST(Deadness, SyntacticCertifiesTotIndependentViolations) {
  // A positive case: invalidity through a tot-independent axiom (HBC3) is
  // dead under any criterion.
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 8));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 3));
  Evs.push_back(makeWrite(2, 0, Mode::SeqCst, 4, 4, 5));
  Evs.push_back(makeRead(3, 1, Mode::SeqCst, 4, 4, 5));
  Evs.push_back(makeRead(4, 1, Mode::Unordered, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 2);
  CE.Sb.set(3, 4);
  for (unsigned K = 4; K < 8; ++K)
    CE.Rbf.push_back({K, 2, 3});
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 4}); // stale read despite synchronization
  Relation Tot;
  ASSERT_TRUE(existsSyntacticallyDeadTot(CE, ModelSpec::revised(), &Tot));
  CE.Tot = Tot;
  EXPECT_TRUE(isSemanticallyDead(CE, ModelSpec::revised()));
}

TEST(Search, SkeletonCandidatesAreWellFormedTwins) {
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 3;
  Cfg.NumLocs = 2;
  uint64_t Count = 0;
  forEachSkeletonCandidate(Cfg, [&](const CandidateExecution &Js,
                                    const ArmExecution &Arm) {
    std::string Err;
    EXPECT_TRUE(Js.checkWellFormed(&Err)) << Err;
    EXPECT_EQ(Js.numEvents(), Arm.numEvents());
    for (unsigned I = 0; I < Js.numEvents(); ++I) {
      const Event &J = Js.Events[I];
      const ArmEvent &A = Arm.Events[I];
      EXPECT_EQ(J.isWrite(), A.isWrite());
      if (J.Ord == Mode::SeqCst) {
        EXPECT_TRUE(A.isWrite() ? A.Release : A.Acquire)
            << "SC events must map to release/acquire";
      }
    }
    ++Count;
    return Count < 2000;
  });
  EXPECT_GT(Count, 100u);
}

namespace {

/// One access of a skeleton shape.
struct ShapeAccess {
  int Thread;
  unsigned KindMode; ///< 0..3: write/read x SeqCst/Unordered
  unsigned Loc;
};

/// The isomorphism class of a shape of at most five accesses over at most
/// two locations: the minimum, over location permutations, of the sorted
/// multiset of per-thread (kind, mode, loc) sequences. A sequence packs
/// into 20 bits (4 per access, each code nonzero so lengths differ), and
/// the sorted multiset of up to three packs into one word.
uint64_t classKey(const std::vector<ShapeAccess> &Shape, unsigned NumLocs) {
  std::vector<unsigned> Perm(NumLocs);
  std::iota(Perm.begin(), Perm.end(), 0u);
  uint64_t Best = ~uint64_t(0);
  do {
    std::vector<uint64_t> Seqs;
    for (const ShapeAccess &A : Shape) {
      if (static_cast<size_t>(A.Thread) >= Seqs.size())
        Seqs.resize(A.Thread + 1, 0);
      Seqs[A.Thread] = Seqs[A.Thread] * 16 + 1 + A.KindMode * 2 + Perm[A.Loc];
    }
    std::sort(Seqs.begin(), Seqs.end());
    uint64_t Key = 0;
    for (uint64_t Seq : Seqs)
      Key = (Key << 20) | Seq;
    Best = std::min(Best, Key);
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return Best;
}

/// The class keys of the unrestricted shape space the searches used to
/// sweep: threads as a restricted-growth string, any (kind, mode) and any
/// location per access, every location of the pass used.
void collectUnrestrictedClasses(unsigned NumEvents, unsigned NumLocs,
                                unsigned MaxThreads,
                                std::vector<ShapeAccess> &Shape,
                                int MaxThreadUsed, std::set<uint64_t> &Keys) {
  if (Shape.size() == NumEvents) {
    unsigned Used = 0;
    for (const ShapeAccess &A : Shape)
      Used |= 1u << A.Loc;
    if (Used == (1u << NumLocs) - 1)
      Keys.insert(classKey(Shape, NumLocs));
    return;
  }
  for (int T = 0; T <= MaxThreadUsed + 1 && T < static_cast<int>(MaxThreads);
       ++T)
    for (unsigned KindMode = 0; KindMode < 4; ++KindMode)
      for (unsigned Loc = 0; Loc < NumLocs; ++Loc) {
        Shape.push_back({T, KindMode, Loc});
        collectUnrestrictedClasses(NumEvents, NumLocs, MaxThreads, Shape,
                                   std::max(MaxThreadUsed, T), Keys);
        Shape.pop_back();
      }
}

} // namespace

TEST(Search, CanonicalShapesCoverEveryIsomorphismClass) {
  // The canonical enumerator (thread-sorted, thread blocks ordered,
  // locations as a restricted-growth string) must reach every class of
  // the unrestricted space, and nothing else.
  for (unsigned MaxThreads : {2u, 3u}) {
    SCOPED_TRACE("MaxThreads=" + std::to_string(MaxThreads));
    SearchConfig Cfg;
    Cfg.MinEvents = 1;
    Cfg.MaxEvents = 5;
    Cfg.NumLocs = 2;
    Cfg.MaxThreads = MaxThreads;

    std::set<uint64_t> Expected;
    for (unsigned N = Cfg.MinEvents; N <= Cfg.MaxEvents; ++N)
      for (unsigned L = 1; L <= Cfg.NumLocs; ++L) {
        std::vector<ShapeAccess> Shape;
        collectUnrestrictedClasses(N, L, MaxThreads, Shape, -1, Expected);
      }

    std::set<uint64_t> Visited;
    SearchStats Stats;
    forEachSkeletonCandidate(
        Cfg,
        [&](const CandidateExecution &Js, const ArmExecution &) {
          std::vector<ShapeAccess> Shape;
          Shape.reserve(Js.Events.size());
          int LastThread = 0;
          int MaxLoc = -1;
          bool Ordered = true;
          for (const Event &E : Js.Events) {
            if (E.Ord == Mode::Init)
              continue;
            // Threads never decrease along event order; each location is
            // at most one above every location before it.
            Ordered = Ordered && E.Thread >= LastThread &&
                      static_cast<int>(E.Index) <= MaxLoc + 1;
            LastThread = E.Thread;
            MaxLoc = std::max(MaxLoc, static_cast<int>(E.Index));
            Shape.push_back(
                {E.Thread,
                 (E.isWrite() ? 0u : 2u) + (E.Ord == Mode::SeqCst ? 0u : 1u),
                 E.Index});
          }
          EXPECT_TRUE(Ordered) << Js.toString();
          Visited.insert(classKey(Shape, static_cast<unsigned>(MaxLoc) + 1));
          return Ordered;
        },
        &Stats);
    EXPECT_TRUE(Visited == Expected)
        << Visited.size() << " classes visited, " << Expected.size()
        << " in the unrestricted space";
    // Equal-key blocks told apart only by locations leave a few
    // duplicates: never more than 3% over one shape per class.
    EXPECT_GE(Stats.Skeletons, Expected.size());
    EXPECT_LE(Stats.Skeletons * 100, Expected.size() * 103);
  }
}

TEST(Search, CanonicalShapeCountIsPinned) {
  // Four accesses over up to three threads: the one-location pass emits
  // one shape for each of its 808 isomorphism classes, the two-location
  // pass 5,656 shapes for 5,496 classes.
  SearchConfig Cfg;
  Cfg.MinEvents = 4;
  Cfg.MaxEvents = 4;
  Cfg.NumLocs = 2;
  Cfg.MaxThreads = 3;
  SearchStats Stats;
  forEachSkeletonCandidate(
      Cfg, [](const CandidateExecution &, const ArmExecution &) {
        return true;
      },
      &Stats);
  EXPECT_EQ(Stats.Skeletons, 808u + 5656u);
}

TEST(Search, ArmCoWitnessSearch) {
  // Fig. 6a's ARM twin has a consistent coherence witness.
  CandidateExecution Js = fig6aExecution();
  std::vector<ArmEvent> Evs;
  for (const Event &E : Js.Events) {
    if (E.Ord == Mode::Init) {
      Evs.push_back(makeArmInit(E.Id, 8));
      continue;
    }
    if (E.isWrite()) {
      ArmEvent W = makeArmWrite(E.Id, E.Thread, E.Index, 4,
                                valueOfBytes(E.WriteBytes),
                                E.Ord == Mode::SeqCst);
      Evs.push_back(W);
    } else {
      ArmEvent R = makeArmRead(E.Id, E.Thread, E.Index, 4,
                               E.Ord == Mode::SeqCst);
      R.Bytes = E.ReadBytes;
      Evs.push_back(R);
    }
  }
  ArmExecution Arm(std::move(Evs));
  Arm.Po = Js.Sb;
  Arm.Rbf = Js.Rbf;
  ArmExecution Witness;
  EXPECT_TRUE(armConsistentForSomeCo(Arm, &Witness));
  EXPECT_TRUE(isArmConsistent(Witness));
}

TEST(Search, ExactDeadnessFindsFourEventInitCex) {
  // A reproduction finding: with the *exact* semantic deadness criterion
  // (infeasible in the paper's Alloy setup), a 4-event counter-example
  // exists, relying on the Init synchronizes-with special case. It is
  // legitimate: dead-invalid in the original model, ARM-consistent, and
  // fine in the revised model.
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 5;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::original();
  Cfg.Deadness = SearchConfig::DeadnessMode::Semantic;
  auto Cex = searchArmCompilationCex(Cfg);
  ASSERT_TRUE(Cex.has_value());
  EXPECT_EQ(Cex->NumEvents, 4u);
  EXPECT_TRUE(isSemanticallyDead(Cex->Js, ModelSpec::original()));
  EXPECT_TRUE(isArmConsistent(Cex->Arm));
  EXPECT_FALSE(isSemanticallyDead(Cex->Js, ModelSpec::revised()));
}

TEST(Search, FourEventInitCexConfirmedAtProgramLevel) {
  // The 4-event skeleton corresponds to an SB variant; the both-zero
  // outcome is (wrongly) forbidden by the original model yet observable
  // through the ARMv8 compilation scheme.
  Program P(2);
  P.Name = "sb-init-cex";
  ThreadBuilder T0 = P.thread();
  T0.store(Acc::u8(0).sc(), 1);
  T0.load(Acc::u8(1).sc());
  ThreadBuilder T1 = P.thread();
  T1.store(Acc::u8(1), 3); // the one Unordered access
  T1.load(Acc::u8(0).sc());
  Outcome BothZero = outcome({{0, 0, 0}, {1, 0, 0}});
  EXPECT_FALSE(
      enumerateOutcomes(P, ModelSpec::original()).allows(BothZero));
  EXPECT_TRUE(enumerateOutcomes(P, ModelSpec::revised()).allows(BothZero));
  CompileCheckResult R =
      checkCompilationForProgram(P, ModelSpec::original());
  EXPECT_FALSE(R.holds());
  EXPECT_TRUE(checkCompilationForProgram(P, ModelSpec::revised()).holds());
}

TEST(Search, NoArmCompilationCexBelowSixEventsModuloInitSw) {
  // §5.2's minimality row: excluding the Init-synchronization class (the
  // class the paper's syntactic deadness cannot certify), nothing smaller
  // than 6 events exists.
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 5;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::original();
  Cfg.Deadness = SearchConfig::DeadnessMode::Semantic;
  Cfg.ExcludeInitSynchronization = true;
  SearchStats Stats;
  auto Cex = searchArmCompilationCex(Cfg, &Stats);
  EXPECT_FALSE(Cex.has_value());
  EXPECT_GT(Stats.Skeletons, 0u);
}

TEST(Search, FindsArmCompilationCexAtSixEvents) {
  SearchConfig Cfg;
  Cfg.MinEvents = 6;
  Cfg.MaxEvents = 6;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::original();
  Cfg.Deadness = SearchConfig::DeadnessMode::Semantic;
  Cfg.ExcludeInitSynchronization = true;
  SearchStats Stats;
  auto Cex = searchArmCompilationCex(Cfg, &Stats);
  ASSERT_TRUE(Cex.has_value());
  EXPECT_EQ(Cex->NumEvents, 6u);
  EXPECT_EQ(Cex->NumLocs, 2u);
  // The witness pair is genuinely a counter-example.
  EXPECT_TRUE(isSemanticallyDead(Cex->Js, ModelSpec::original()));
  EXPECT_TRUE(isArmConsistent(Cex->Arm));
  // And it is NOT a counter-example for the revised model.
  EXPECT_FALSE(isSemanticallyDead(Cex->Js, ModelSpec::revised()));
}

TEST(Search, ScDrfCexAtFourEventsOneLocation) {
  // §5.4: a 4-event, 1-location SC-DRF counter-example exists in the
  // original model (Fig. 8's shape).
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 4;
  Cfg.NumLocs = 1;
  Cfg.Js = ModelSpec::original();
  SearchStats Stats;
  auto Cex = searchScDrfCex(Cfg, &Stats);
  ASSERT_TRUE(Cex.has_value());
  EXPECT_EQ(Cex->NumEvents, 4u);
  EXPECT_EQ(Cex->NumLocs, 1u);
}

TEST(Search, NoScDrfCexInRevisedModelUpToFourEvents) {
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 4;
  Cfg.NumLocs = 1;
  Cfg.Js = ModelSpec::revised();
  auto Cex = searchScDrfCex(Cfg);
  EXPECT_FALSE(Cex.has_value());
}

TEST(Search, BoundedCompilationHoldsForRevisedModel) {
  // §5.3 at a small bound: the tot construction witnesses every
  // ARM-consistent skeleton execution.
  SearchConfig Cfg;
  Cfg.MinEvents = 2;
  Cfg.MaxEvents = 4;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::revised();
  BoundedCompilationReport R = boundedCompilationCheck(Cfg);
  EXPECT_GT(R.ArmConsistentExecutions, 0u);
  EXPECT_TRUE(R.holds()) << R.ConstructionFailures << " failures";
}

TEST(Search, BoundedCompilationFailsForOriginalModel) {
  SearchConfig Cfg;
  Cfg.MinEvents = 6;
  Cfg.MaxEvents = 6;
  Cfg.NumLocs = 2;
  Cfg.Js = ModelSpec::original();
  Cfg.Threads = 0; // the full 6-event space: shard it across every core
  BoundedCompilationReport R = boundedCompilationCheck(Cfg);
  EXPECT_FALSE(R.holds());
}

TEST(Search, BudgetStopsTheSearch) {
  SearchConfig Cfg;
  Cfg.MinEvents = 6;
  Cfg.MaxEvents = 6;
  Cfg.NumLocs = 2;
  Cfg.MaxCandidates = 500;
  SearchStats Stats;
  searchArmCompilationCex(Cfg, &Stats);
  EXPECT_TRUE(Stats.BudgetExhausted || Stats.RbfCandidates <= 500);
}

TEST(Search, ExistsInvalidTotFindsNaiveWitness) {
  // The Fig. 11 execution has an invalidating tot (the naive criterion).
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 4, 2));
  Evs.push_back(makeRead(3, 1, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(2, 3);
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  Relation Tot;
  ASSERT_TRUE(existsInvalidTot(CE, ModelSpec::original(), &Tot));
  CE.Tot = Tot;
  EXPECT_FALSE(isValid(CE, ModelSpec::original()));
}
