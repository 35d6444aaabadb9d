//===- tests/property_test.cpp - Parameterized model invariants -----------===//
///
/// \file
/// Property-style sweeps over enumerated execution universes, checking the
/// structural facts the paper's proofs lean on:
///
///   - the ARM fix is a pure weakening, the SC-DRF fix a strengthening in
///     the tear-free dimension (strong rule ⊆ weak rule);
///   - the simplified synchronizes-with is contained in the spec one;
///   - sequentially consistent executions are valid in every model
///     variant (the easy direction of SC-DRF);
///   - syntactic deadness implies semantic deadness;
///   - the operational simulator is sound against the axiomatic ARMv8
///     model on generated corpora;
///   - compiled-program translations are well-formed and
///     behaviour-preserving.
///
//===----------------------------------------------------------------------===//

#include "compile/TotConstruction.h"
#include "core/SeqConsistency.h"
#include "engine/ExecutionEngine.h"
#include "flatsim/FlatSim.h"
#include "gen/Diy.h"
#include "search/SkeletonSearch.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace jsmm;
using namespace jsmm::testutil;

//===----------------------------------------------------------------------===//
// Skeleton-universe properties, parameterized by (events, locations).
//===----------------------------------------------------------------------===//

class SkeletonProperty
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {
protected:
  SearchConfig config() const {
    SearchConfig Cfg;
    Cfg.MinEvents = GetParam().first;
    Cfg.MaxEvents = GetParam().first;
    Cfg.NumLocs = GetParam().second;
    return Cfg;
  }

  template <typename FnT> void sweep(FnT Fn, uint64_t Cap = 30000) {
    uint64_t Count = 0;
    forEachSkeletonCandidate(
        config(),
        [&](const CandidateExecution &Js, const ArmExecution &Arm) {
          Fn(Js, Arm);
          return ++Count < Cap;
        },
        nullptr);
    EXPECT_GT(Count, 0u);
  }
};

TEST_P(SkeletonProperty, ArmFixIsAPureWeakening) {
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    if (isValidForSomeTot(Js, ModelSpec::original())) {
      EXPECT_TRUE(isValidForSomeTot(Js, ModelSpec::armFixOnly()))
          << Js.toString();
    }
  });
}

TEST_P(SkeletonProperty, StrongTearFreeIsAPureStrengthening) {
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    if (isValidForSomeTot(Js, ModelSpec::revisedStrongTearFree())) {
      EXPECT_TRUE(isValidForSomeTot(Js, ModelSpec::revised()))
          << Js.toString();
    }
  });
}

TEST_P(SkeletonProperty, SimplifiedSwContainedInSpecSw) {
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    Relation Rf = Js.readsFrom();
    Relation Spec = Js.synchronizesWith(SwDefKind::SpecWithInitCase, Rf);
    Relation Simp = Js.synchronizesWith(SwDefKind::Simplified, Rf);
    EXPECT_TRUE(Spec.contains(Simp)) << Js.toString();
  });
}

TEST_P(SkeletonProperty, SequentialConsistencyImpliesValidity) {
  // The easy half of SC-DRF: interleaving-explainable executions are
  // allowed by every variant (skeletons carry no asw, which is what makes
  // this hold for the original first-attempt rule too).
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    if (!isSequentiallyConsistent(Js))
      return;
    for (ModelSpec Spec :
         {ModelSpec::original(), ModelSpec::armFixOnly(),
          ModelSpec::revised(), ModelSpec::revisedStrongTearFree()})
      EXPECT_TRUE(isValidForSomeTot(Js, Spec))
          << Spec.Name << "\n" << Js.toString();
  });
}

TEST_P(SkeletonProperty, SyntacticDeadnessImpliesSemantic) {
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    if (existsSyntacticallyDeadTot(Js, ModelSpec::original())) {
      EXPECT_TRUE(isSemanticallyDead(Js, ModelSpec::original()))
          << Js.toString();
    }
  });
}

TEST_P(SkeletonProperty, ValidityWitnessesAreWellFormed) {
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    Relation Tot;
    if (!isValidForSomeTot(Js, ModelSpec::revised(), &Tot))
      return;
    CandidateExecution WithTot = Js;
    WithTot.Tot = Tot;
    std::string Err;
    EXPECT_TRUE(WithTot.checkWellFormed(&Err)) << Err;
    EXPECT_TRUE(isValid(WithTot, ModelSpec::revised()));
  });
}

TEST_P(SkeletonProperty, HbIsContainedInEveryWitnessTot) {
  sweep([&](const CandidateExecution &Js, const ArmExecution &) {
    Relation Tot;
    if (!isValidForSomeTot(Js, ModelSpec::revised(), &Tot))
      return;
    EXPECT_TRUE(Tot.contains(Js.happensBefore(SwDefKind::Simplified)));
  });
}

TEST_P(SkeletonProperty, ArmConsistentExecutionsAreJsValidRevised) {
  // Thm 6.2 restated over the skeleton universe (identity translation).
  sweep([&](const CandidateExecution &Js, const ArmExecution &Arm) {
    ArmExecution Witness;
    if (!armConsistentForSomeCo(Arm, &Witness))
      return;
    EXPECT_TRUE(isValidForSomeTot(Js, ModelSpec::revised()))
        << Js.toString() << Witness.toString();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SkeletonProperty,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(3u, 1u),
                      std::make_pair(3u, 2u), std::make_pair(4u, 1u),
                      std::make_pair(4u, 2u)),
    [](const ::testing::TestParamInfo<std::pair<unsigned, unsigned>> &Info) {
      return "events" + std::to_string(Info.param.first) + "_locs" +
             std::to_string(Info.param.second);
    });

//===----------------------------------------------------------------------===//
// Corpus properties, parameterized by cycle length.
//===----------------------------------------------------------------------===//

class CorpusProperty : public ::testing::TestWithParam<unsigned> {
protected:
  std::vector<DiyTest> corpus() const {
    DiyConfig Cfg;
    Cfg.MinEdges = GetParam();
    Cfg.MaxEdges = GetParam();
    Cfg.Alphabet = {EdgeKind::Rfe,      EdgeKind::Fre,    EdgeKind::Coe,
                    EdgeKind::PodRR,    EdgeKind::PodRW,  EdgeKind::PodWR,
                    EdgeKind::PodWW,    EdgeKind::DmbdWW, EdgeKind::DmbdRR,
                    EdgeKind::AcqPodRR, EdgeKind::PodRelWW,
                    EdgeKind::AddrdRR,  EdgeKind::CtrldRW};
    return generateCorpus(Cfg);
  }
};

TEST_P(CorpusProperty, OperationalSoundAgainstAxiomatic) {
  for (const DiyTest &T : corpus()) {
    std::set<std::string> AxOutcomes;
    ArmEnumerationResult Ax = ExecutionEngine().enumerate(T.Prog, Armv8Model());
    for (const auto &[O, X] : Ax.Allowed) {
      (void)X;
      AxOutcomes.insert(O.toString());
    }
    forEachFlatExecution(T.Prog,
                         [&](const ArmExecution &X, const Outcome &O) {
                           std::string Why;
                           EXPECT_TRUE(isArmConsistent(X, &Why))
                               << T.Name << ": " << Why << X.toString();
                           EXPECT_TRUE(AxOutcomes.count(O.toString()))
                               << T.Name << ": " << O.toString();
                           return true;
                         });
  }
}

TEST_P(CorpusProperty, GeneratedProgramsAreWellFormed) {
  for (const DiyTest &T : corpus()) {
    ExecutionEngine().forEachArmCandidate(
        T.Prog, [&](const ArmExecution &X, const Outcome &O) {
          (void)O;
          std::string Err;
          EXPECT_TRUE(X.checkWellFormed(&Err))
              << T.Name << ": " << Err;
          return false; // one witness per test is enough
        });
  }
}

INSTANTIATE_TEST_SUITE_P(CycleLengths, CorpusProperty,
                         ::testing::Values(2u, 3u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           return "len" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Compiled-program properties, parameterized over a program family.
//===----------------------------------------------------------------------===//

namespace {

Program namedProgram(int Which) {
  switch (Which) {
  case 0:
    return fig1Program();
  case 1:
    return fig6Program();
  case 2:
    return fig8Program();
  case 3: {
    Program P(8);
    P.Name = "lb-sc";
    ThreadBuilder T0 = P.thread();
    T0.load(Acc::u32(0).sc());
    T0.store(Acc::u32(4).sc(), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(4).sc());
    T1.store(Acc::u32(0).sc(), 1);
    return P;
  }
  default: {
    Program P(4);
    P.Name = "xchg";
    ThreadBuilder T0 = P.thread();
    T0.exchange(Acc::u32(0), 1);
    ThreadBuilder T1 = P.thread();
    T1.load(Acc::u32(0).sc());
    return P;
  }
  }
}

} // namespace

class CompiledProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompiledProperty, TranslationIsWellFormedAndBehaviourPreserving) {
  Program P = namedProgram(GetParam());
  CompiledProgram CP = compileToArm(P);
  unsigned Seen = 0;
  ExecutionEngine().forEachArmCandidate(CP.Arm, [&](const ArmExecution &X,
                                                    const Outcome &O) {
    (void)O;
    // The translation relation is defined on consistent ARM executions
    // (an inconsistent one may, e.g., have an exclusive load reading its
    // own paired store, which has no JS counterpart).
    if (!isArmConsistent(X))
      return true;
    TranslationResult TR = translateExecution(X, CP);
    std::string Err;
    EXPECT_TRUE(TR.Js.checkWellFormed(&Err)) << P.Name << ": " << Err;
    EXPECT_EQ(TR.Js.Rbf.size(), X.Rbf.size());
    return ++Seen < 200;
  });
  EXPECT_GT(Seen, 0u);
}

TEST_P(CompiledProperty, RevisedCompilationHolds) {
  Program P = namedProgram(GetParam());
  CompileCheckResult R = checkCompilationForProgram(P, ModelSpec::revised());
  EXPECT_TRUE(R.holds()) << P.Name;
  EXPECT_TRUE(R.constructionAlwaysWorks()) << P.Name;
}

TEST_P(CompiledProperty, ArmOutcomesSubsetOfRevisedJsOutcomes) {
  // Observable-behaviour form of compilation correctness: everything the
  // ARM program can show, the revised JS model must allow.
  Program P = namedProgram(GetParam());
  CompiledProgram CP = compileToArm(P);
  EnumerationResult Js =
      ExecutionEngine().enumerate(P, JsModel(ModelSpec::revised()));
  ArmEnumerationResult Arm = ExecutionEngine().enumerate(CP.Arm, Armv8Model());
  for (const auto &[O, X] : Arm.Allowed) {
    (void)X;
    EXPECT_TRUE(Js.allows(O)) << P.Name << ": ARM-only outcome "
                              << O.toString();
  }
}

namespace {

std::string compiledPropertyName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"fig1", "fig6", "fig8", "lb_sc", "xchg"};
  return Names[Info.param];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Programs, CompiledProperty,
                         ::testing::Values(0, 1, 2, 3, 4),
                         compiledPropertyName);
