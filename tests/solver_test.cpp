//===- tests/solver_test.cpp - Order-solver equivalence and properties ----===//
///
/// \file
/// The differential harness for the solver subsystem: the
/// constraint-propagation solver must be observationally identical to the
/// brute-force linear-extension oracle on every tot-order question the
/// models pose — existential validity, the refutation dual, syntactic
/// deadness, and the uni-size variant — over randomized candidate
/// executions, the paper figures, and the cross-model differential corpus;
/// and every witness either solver returns must actually validate (or
/// refute) under the axioms it was derived from.
///
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "search/SkeletonSearch.h"
#include "solver/ScConstraints.h"
#include "support/LinearExtensions.h"
#include "service/LitmusService.h"
#include "targets/Differential.h"
#include "targets/UniProgram.h"
#include "unisize/Reduction.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <random>

using namespace jsmm;
using namespace jsmm::testutil;

namespace {

const std::vector<ModelSpec> &allSpecs() {
  static const std::vector<ModelSpec> Specs = {
      ModelSpec::original(), ModelSpec::armFixOnly(), ModelSpec::revised(),
      ModelSpec::revisedStrongTearFree()};
  return Specs;
}

/// Deterministic random candidate executions in the single-byte skeleton
/// universe: random threads/kinds/modes/locations, sb in id order per
/// thread, and a random complete rbf justification per read.
CandidateExecution randomCandidate(std::mt19937 &Rng) {
  std::uniform_int_distribution<unsigned> NumEvents(2, 6), NumLocs(1, 2),
      Threads(0, 2), Coin(0, 1);
  unsigned N = NumEvents(Rng);
  unsigned L = NumLocs(Rng);
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, L));
  for (unsigned I = 1; I <= N; ++I) {
    int T = static_cast<int>(Threads(Rng));
    Mode Ord = Coin(Rng) ? Mode::SeqCst : Mode::Unordered;
    unsigned Loc = std::uniform_int_distribution<unsigned>(0, L - 1)(Rng);
    if (Coin(Rng))
      Evs.push_back(makeWrite(I, T, Ord, Loc, 1, /*Value=*/I));
    else
      Evs.push_back(makeRead(I, T, Ord, Loc, 1, /*Value=*/0));
  }
  CandidateExecution CE(std::move(Evs));
  for (unsigned I = 1; I <= N; ++I)
    for (unsigned J = I + 1; J <= N; ++J)
      if (CE.Events[I].Thread == CE.Events[J].Thread)
        CE.Sb.set(I, J);
  for (Event &R : CE.Events) {
    if (!R.isRead())
      continue;
    unsigned Loc = R.Index;
    std::vector<EventId> Writers;
    for (const Event &W : CE.Events)
      if (W.Id != R.Id && W.writesByte(Loc))
        Writers.push_back(W.Id);
    EventId W = Writers[std::uniform_int_distribution<size_t>(
        0, Writers.size() - 1)(Rng)];
    CE.Rbf.push_back({Loc, W, R.Id});
    R.ReadBytes[0] = CE.Events[W].writtenByteAt(Loc);
  }
  return CE;
}

/// An SB core padded with \p Fillers private three-store writer threads
/// (event bound 5 + 3*Fillers). The fillers never read and own their
/// cells, so every width has the verdict table of the bare SB core.
Program wideSbProgram(unsigned Fillers) {
  UniProgram P(2 + 3 * Fillers);
  P.Name = "wide-sb-" + std::to_string(5 + 3 * Fillers);
  unsigned T0 = P.thread();
  P.store(T0, 0, 1, Mode::Unordered);
  P.load(T0, 1, Mode::Unordered);
  unsigned T1 = P.thread();
  P.store(T1, 1, 1, Mode::Unordered);
  P.load(T1, 0, Mode::Unordered);
  for (unsigned F = 0; F < Fillers; ++F) {
    unsigned T = P.thread();
    for (unsigned L = 0; L < 3; ++L)
      P.store(T, 2 + 3 * F + L, 1 + L, Mode::Unordered);
  }
  return mixedFromUni(P);
}

} // namespace

//===----------------------------------------------------------------------===//
// Randomized solver equivalence
//===----------------------------------------------------------------------===//

TEST(SolverProperty, SolversAgreeOnRandomizedCandidates) {
  std::mt19937 Rng(20200715); // PLDI 2020, fixed seed
  const TotSolver &Brute = totSolver(SolverKind::Brute);
  const TotSolver &Prop = totSolver(SolverKind::Propagate);
  for (unsigned Round = 0; Round < 400; ++Round) {
    CandidateExecution CE = randomCandidate(Rng);
    std::string Err;
    ASSERT_TRUE(CE.checkWellFormed(&Err)) << Err;
    for (const ModelSpec &Spec : allSpecs()) {
      Relation BruteTot, PropTot;
      bool B = isValidForSomeTot(CE, Spec, &BruteTot, Brute);
      bool P = isValidForSomeTot(CE, Spec, &PropTot, Prop);
      EXPECT_EQ(B, P) << Spec.Name << "\n" << CE.toString();
      if (B && P) {
        // Either witness must actually validate under the full axioms.
        CandidateExecution WithTot = CE;
        WithTot.Tot = BruteTot;
        EXPECT_TRUE(isValid(WithTot, Spec)) << Spec.Name << "\n"
                                            << CE.toString();
        WithTot.Tot = PropTot;
        EXPECT_TRUE(isValid(WithTot, Spec)) << Spec.Name << "\n"
                                            << CE.toString();
      }
      EXPECT_EQ(isInvalidForAllTot(CE, Spec, Brute),
                isInvalidForAllTot(CE, Spec, Prop))
          << Spec.Name << "\n" << CE.toString();
    }
  }
}

TEST(SolverProperty, RefutationDualAgreesOnRandomizedCandidates) {
  std::mt19937 Rng(424242);
  for (unsigned Round = 0; Round < 300; ++Round) {
    CandidateExecution CE = randomCandidate(Rng);
    for (const ModelSpec &Spec : allSpecs()) {
      Relation BruteTot, PropTot;
      bool B = existsInvalidTot(CE, Spec, &BruteTot, SolverConfig::brute());
      bool P =
          existsInvalidTot(CE, Spec, &PropTot, SolverConfig::propagate());
      EXPECT_EQ(B, P) << Spec.Name << "\n" << CE.toString();
      if (B && P) {
        CandidateExecution WithTot = CE;
        WithTot.Tot = BruteTot;
        EXPECT_FALSE(isValid(WithTot, Spec)) << Spec.Name;
        WithTot.Tot = PropTot;
        EXPECT_FALSE(isValid(WithTot, Spec)) << Spec.Name;
      }
    }
  }
}

TEST(SolverProperty, SyntacticDeadnessAgreesOnRandomizedCandidates) {
  std::mt19937 Rng(5150);
  const TotSolver &Brute = totSolver(SolverKind::Brute);
  const TotSolver &Prop = totSolver(SolverKind::Propagate);
  for (unsigned Round = 0; Round < 300; ++Round) {
    CandidateExecution CE = randomCandidate(Rng);
    for (const ModelSpec &Spec : allSpecs()) {
      Relation BruteTot, PropTot;
      bool B = existsSyntacticallyDeadTot(CE, Spec, &BruteTot, Brute);
      bool P = existsSyntacticallyDeadTot(CE, Spec, &PropTot, Prop);
      EXPECT_EQ(B, P) << Spec.Name << "\n" << CE.toString();
      if (B && P) {
        // A witness from the tot-independent-violation branch is dead by
        // definition but need not pass the hb-forced-edge criterion; only
        // SC-rule witnesses are full syntactic counter-examples.
        bool TotIndependentlyDead = !checkTotIndependentAxioms(
            CE, CE.derived(Spec.Sw), Spec);
        for (const Relation &Tot : {BruteTot, PropTot}) {
          CandidateExecution WithTot = CE;
          WithTot.Tot = Tot;
          EXPECT_FALSE(isValid(WithTot, Spec))
              << Spec.Name << "\n" << CE.toString();
          if (!TotIndependentlyDead)
            EXPECT_TRUE(isSyntacticallyDeadCounterExample(WithTot, Spec))
                << Spec.Name << "\n" << CE.toString();
        }
        EXPECT_TRUE(isSemanticallyDead(CE, Spec) ||
                    !TotIndependentlyDead)
            << Spec.Name << "\n" << CE.toString();
      }
    }
  }
}

TEST(SolverProperty, UniSizeSolversAgreeOnReducedCandidates) {
  std::mt19937 Rng(6364);
  const TotSolver &Brute = totSolver(SolverKind::Brute);
  const TotSolver &Prop = totSolver(SolverKind::Propagate);
  unsigned Reduced = 0;
  for (unsigned Round = 0; Round < 400; ++Round) {
    CandidateExecution CE = randomCandidate(Rng);
    if (!isUniSizeReducible(CE))
      continue;
    ++Reduced;
    ReductionResult RR = reduceToUniSize(CE);
    Relation BruteTot, PropTot;
    bool B = isUniValidForSomeTot(RR.Uni, &BruteTot, Brute);
    bool P = isUniValidForSomeTot(RR.Uni, &PropTot, Prop);
    EXPECT_EQ(B, P) << RR.Uni.toString();
    if (B && P) {
      UniExecution WithTot = RR.Uni;
      WithTot.Tot = BruteTot;
      EXPECT_TRUE(isUniValid(WithTot)) << RR.Uni.toString();
      WithTot.Tot = PropTot;
      EXPECT_TRUE(isUniValid(WithTot)) << RR.Uni.toString();
    }
  }
  EXPECT_GT(Reduced, 100u);
}

//===----------------------------------------------------------------------===//
// Paper figures and the differential corpus
//===----------------------------------------------------------------------===//

TEST(Solver, AgreesOnPaperFigures) {
  const TotSolver &Brute = totSolver(SolverKind::Brute);
  const TotSolver &Prop = totSolver(SolverKind::Propagate);
  for (const CandidateExecution &CE :
       {fig2Execution(), fig6aExecution(), fig8Execution(),
        fig14Execution()})
    for (const ModelSpec &Spec : allSpecs())
      EXPECT_EQ(isValidForSomeTot(CE, Spec, nullptr, Brute),
                isValidForSomeTot(CE, Spec, nullptr, Prop))
          << Spec.Name;
}

TEST(Solver, DifferentialCorpusVerdictsIdenticalUnderBothSolvers) {
  // The 17-program cross-model corpus, every backend column, both solvers
  // as the process default: the verdict tables must be identical and the
  // Thm 6.3 soundness check clean under each.
  SolverKind Saved = defaultSolverKind();
  std::vector<DiffCase> Corpus = differentialCorpus();
  ASSERT_GE(Corpus.size(), 17u);
  std::map<std::string,
           std::map<std::string, std::vector<std::string>>> Tables[2];
  for (SolverKind K : allSolverKinds()) {
    setDefaultSolverKind(K);
    for (const DiffCase &C : Corpus) {
      LitmusJobResult R = differentialTable(C.program());
      EXPECT_TRUE(R.SoundnessViolations.empty())
          << C.Name << " under " << solverKindName(K);
      Tables[K == SolverKind::Brute ? 0 : 1][C.Name] = R.AllowedByBackend;
    }
  }
  setDefaultSolverKind(Saved);
  EXPECT_EQ(Tables[0], Tables[1]);
}

TEST(Solver, PropagationServesProgramsPastTheBruteBound) {
  // 305 events, on the heap relation tier: propagation answers at 1 and 4
  // engine threads with the table of the 2-thread SB core, and a brute
  // request at this size is answered by propagation too.
  Program Wide = wideSbProgram(100);
  ASSERT_EQ(programEventUpperBound(Wide), 305u);
  JsModel Prop(ModelSpec::revised(), SolverConfig::propagate());
  std::vector<std::string> Core = ExecutionEngine(EngineConfig{1, true})
                                      .enumerateOutcomes(wideSbProgram(0), Prop)
                                      .outcomeStrings();
  EXPECT_FALSE(Core.empty());
  for (unsigned Threads : {1u, 4u}) {
    OutcomeSummary S = ExecutionEngine(EngineConfig{Threads, true})
                           .enumerateOutcomes(Wide, Prop);
    EXPECT_EQ(S.outcomeStrings(), Core) << "threads " << Threads;
    EXPECT_EQ(S.Tier, "dyn");
    EXPECT_EQ(S.SolverUsed, SolverKind::Propagate);
  }
  OutcomeSummary Brute =
      ExecutionEngine(EngineConfig{1, true})
          .enumerateOutcomes(
              Wide, JsModel(ModelSpec::revised(), SolverConfig::brute()));
  EXPECT_EQ(Brute.outcomeStrings(), Core);
  EXPECT_EQ(Brute.SolverUsed, SolverKind::Propagate);
}

//===----------------------------------------------------------------------===//
// Witness determinism
//===----------------------------------------------------------------------===//

TEST(Solver, WitnessIsDeterministicAcrossEngineThreadCounts) {
  // The enumeration's per-outcome witness (including its solver-produced
  // tot) must not depend on the engine's thread count.
  Program P = fig6Program();
  EnumerationResult Ref;
  bool First = true;
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExecutionEngine Engine(EngineConfig{Threads, true});
    EnumerationResult R = Engine.enumerate(P, JsModel(ModelSpec::revised()));
    if (First) {
      Ref = std::move(R);
      First = false;
      EXPECT_FALSE(Ref.Allowed.empty());
      continue;
    }
    ASSERT_EQ(Ref.Allowed.size(), R.Allowed.size());
    auto ItR = Ref.Allowed.begin();
    for (auto It = R.Allowed.begin(); It != R.Allowed.end(); ++It, ++ItR) {
      EXPECT_EQ(It->first, ItR->first);
      EXPECT_EQ(It->second.Tot, ItR->second.Tot)
          << "witness tot differs at " << It->first.toString();
      EXPECT_EQ(It->second.Rbf, ItR->second.Rbf)
          << "witness justification differs at " << It->first.toString();
    }
  }
}

TEST(Solver, WitnessIsStableAcrossSolverCalls) {
  CandidateExecution CE = fig2Execution();
  for (SolverKind K : allSolverKinds()) {
    Relation First, Second;
    ASSERT_TRUE(isValidForSomeTot(CE, ModelSpec::revised(), &First,
                                  totSolver(K)));
    ASSERT_TRUE(isValidForSomeTot(CE, ModelSpec::revised(), &Second,
                                  totSolver(K)));
    EXPECT_EQ(First, Second) << solverKindName(K);
  }
}

//===----------------------------------------------------------------------===//
// Solver plumbing and the prefix early exit
//===----------------------------------------------------------------------===//

TEST(Solver, KindRegistry) {
  EXPECT_EQ(solverKindByName("brute"), SolverKind::Brute);
  EXPECT_EQ(solverKindByName("propagate"), SolverKind::Propagate);
  EXPECT_FALSE(solverKindByName("alloy").has_value());
  EXPECT_FALSE(solverKindByName("sat").has_value());
  EXPECT_STREQ(totSolver(SolverKind::Brute).name(), "brute");
  EXPECT_STREQ(totSolver(SolverKind::Propagate).name(), "propagate");
  // An unset SolverConfig resolves to the process default.
  SolverKind Saved = defaultSolverKind();
  setDefaultSolverKind(SolverKind::Brute);
  EXPECT_STREQ(totSolver(SolverConfig()).name(), "brute");
  setDefaultSolverKind(Saved);
}

TEST(Solver, PropagationDetectsForcedConflictWithoutBranching) {
  // not(0 < 1 < 2) with must 0->1->2: unsatisfiable outright.
  TotProblem P;
  P.N = 3;
  P.Universe = wordSet(3, 0b111);
  P.Must = Relation(3);
  P.Must.set(0, 1);
  P.Must.set(1, 2);
  P.Forbidden.push_back({0, 1, 2});
  EXPECT_FALSE(totSolver(SolverKind::Propagate).existsExtension(P));
  EXPECT_FALSE(totSolver(SolverKind::Brute).existsExtension(P));
  // The violating direction is trivially realizable.
  Relation Tot;
  EXPECT_TRUE(
      totSolver(SolverKind::Propagate).existsViolatingExtension(P, &Tot));
  EXPECT_TRUE(Tot.get(0, 1) && Tot.get(1, 2));
}

TEST(Solver, PropagationBranchesOnUnconstrainedPairs) {
  // not(0 < 1 < 2) with empty must: satisfiable (e.g. 1 before 0).
  TotProblem P;
  P.N = 3;
  P.Universe = wordSet(3, 0b111);
  P.Must = Relation(3);
  P.Forbidden.push_back({0, 1, 2});
  Relation Tot;
  ASSERT_TRUE(totSolver(SolverKind::Propagate).existsExtension(P, &Tot));
  EXPECT_TRUE(Tot.isStrictTotalOrderOn(P.Universe));
  EXPECT_FALSE(Tot.get(0, 1) && Tot.get(1, 2));
}

TEST(LinearExtensions, PrefixEarlyExitPrunesSubtrees) {
  // 4 free elements: 24 extensions; pruning every prefix that starts
  // with element 0 leaves the 18 orders with 0 not first.
  Relation Free(4);
  uint64_t Count = 0;
  bool Completed = forEachLinearExtension(
      Free, wordSet(4, 0b1111),
      [&](const std::vector<unsigned> &) {
        ++Count;
        return true;
      },
      [&](const std::vector<unsigned> &Prefix) {
        return !(Prefix.size() == 1 && Prefix[0] == 0);
      });
  EXPECT_TRUE(Completed);
  EXPECT_EQ(Count, 18u);
}

TEST(SkeletonSearch, ShardedSearchMatchesSequential) {
  // The (unbudgeted) §5.2 search must return the same counter-example for
  // every thread count — the sequential-first hit, including the
  // solver-produced witness tot (carried by the None deadness mode) and
  // the ARM coherence witness.
  for (SearchConfig::DeadnessMode Mode :
       {SearchConfig::DeadnessMode::Semantic,
        SearchConfig::DeadnessMode::None}) {
    SearchConfig Base;
    Base.MinEvents = 2;
    Base.MaxEvents = 4;
    Base.NumLocs = 2;
    Base.Js = ModelSpec::original();
    Base.Deadness = Mode;
    std::optional<SkeletonCex> Ref;
    for (unsigned Threads : {1u, 3u, 8u}) {
      SearchConfig Cfg = Base;
      Cfg.Threads = Threads;
      std::optional<SkeletonCex> Cex = searchArmCompilationCex(Cfg);
      ASSERT_TRUE(Cex.has_value()) << Threads << " threads";
      if (Mode == SearchConfig::DeadnessMode::None)
        EXPECT_TRUE(Cex->Js.hasTot()) << Threads << " threads";
      if (!Ref) {
        Ref = Cex;
        continue;
      }
      EXPECT_EQ(Cex->NumEvents, Ref->NumEvents) << Threads << " threads";
      EXPECT_EQ(Cex->Js.Rbf, Ref->Js.Rbf) << Threads << " threads";
      EXPECT_EQ(Cex->Js.Sb, Ref->Js.Sb) << Threads << " threads";
      EXPECT_EQ(Cex->Js.Tot, Ref->Js.Tot)
          << Threads << " threads: witness tot differs";
      EXPECT_EQ(Cex->Arm.toString(), Ref->Arm.toString())
          << Threads << " threads: ARM coherence witness differs";
    }
  }
}

TEST(Solver, ShiftedProblemAgreesAcrossRowWidths) {
  // Mirror pseudo-random problems over 9 elements (rows of one word) into
  // a universe of 99 with the ids shifted past the first word (rows of
  // two words) and require identical decisions from both solvers.
  unsigned State = 12345;
  auto Rand = [&](unsigned Mod) {
    State = State * 1664525u + 1013904223u;
    return (State >> 16) % Mod;
  };
  constexpr unsigned N = 9;
  constexpr unsigned Shift = 90; // shifted ids: 90..98
  for (unsigned Round = 0; Round < 60; ++Round) {
    TotProblem P;
    P.N = N;
    P.Universe = Relation::fullSet(N);
    P.Must = Relation(N);
    TotProblem D;
    D.N = Shift + N;
    D.Universe = Relation::emptySet(Shift + N);
    for (unsigned E = 0; E < N; ++E)
      bits::set(D.Universe, Shift + E);
    D.Must = Relation(Shift + N);
    for (unsigned I = 0; I < 6; ++I) {
      unsigned A = Rand(N), B = Rand(N);
      if (A == B)
        continue;
      P.Must.set(A, B);
      D.Must.set(Shift + A, Shift + B);
    }
    for (unsigned I = 0; I < 5; ++I) {
      unsigned Lo = Rand(N), Mid = Rand(N), Hi = Rand(N);
      if (Lo == Mid || Mid == Hi || Lo == Hi)
        continue;
      P.Forbidden.push_back({Lo, Mid, Hi});
      D.Forbidden.push_back({Shift + Lo, Shift + Mid, Shift + Hi});
    }
    for (SolverKind K : allSolverKinds()) {
      const TotSolver &S = totSolver(K);
      Relation Tot;
      Relation ShiftedTot;
      bool Fast = S.existsExtension(P, &Tot);
      bool Shifted = S.existsExtension(D, &ShiftedTot);
      EXPECT_EQ(Fast, Shifted) << "round " << Round << " solver "
                           << solverKindName(K);
      if (Fast && Shifted) {
        // The witnesses must agree modulo the index shift.
        std::vector<std::pair<unsigned, unsigned>> Shifted;
        for (auto [A, B] : Tot.pairs())
          Shifted.emplace_back(A + Shift, B + Shift);
        EXPECT_EQ(Shifted, ShiftedTot.pairs());
        EXPECT_FALSE(D.violates(ShiftedTot));
      }
      EXPECT_EQ(S.existsViolatingExtension(P), S.existsViolatingExtension(D))
          << "round " << Round << " solver " << solverKindName(K);
    }
  }
}
