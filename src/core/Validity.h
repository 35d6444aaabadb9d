//===- core/Validity.h - JS candidate execution validity ------------------===//
///
/// \file
/// Validity of candidate executions under the JavaScript memory model, in
/// all the variants discussed by Watt et al. (PLDI 2020):
///
///   - the 10th-edition ("original") model of Fig. 4, whose Sequentially
///     Consistent Atomics rule ("first attempt") breaks the ARMv8
///     compilation scheme (§3.1) and whose model fails SC-DRF (§3.2);
///   - the ARM-fix-only variant ("second attempt", §3.1), which requires
///     the intervening write to be SeqCst;
///   - the final/revised rule of Fig. 10, combining the ARM fix with the
///     SC-DRF strengthening, together with the simplified definition of
///     synchronizes-with;
///   - optionally the strengthened Tear-Free Reads rule of §6.4.
///
/// The rules split into tot-independent axioms (Happens-Before Consistency
/// (2), (3) and Tear-Free Reads) and tot-dependent axioms (Happens-Before
/// Consistency (1) and the SC Atomics rule); the decision procedures for
/// "exists a valid tot" and "invalid for every tot" exploit this split.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_CORE_VALIDITY_H
#define JSMM_CORE_VALIDITY_H

#include "core/CandidateExecution.h"
#include "solver/TotSolver.h"

#include <string>

namespace jsmm {

/// Which Sequentially Consistent Atomics rule to apply.
enum class ScRuleKind : uint8_t {
  FirstAttempt,  ///< Fig. 4: forbids any same-range write between sw pairs
  SecondAttempt, ///< §3.1 fix: the intervening write must be SeqCst
  Final,         ///< Fig. 10: ARM fix + SC-DRF strengthening
};

/// Which Tear-Free Reads rule to apply.
enum class TearRuleKind : uint8_t {
  Weak,   ///< Fig. 4: only same-range tear-free writes are counted
  Strong, ///< §6.4: Init writes are counted too, making rf⁻¹ functional
};

/// A configuration of the JavaScript memory model.
struct ModelSpec {
  ScRuleKind Sc = ScRuleKind::Final;
  SwDefKind Sw = SwDefKind::Simplified;
  TearRuleKind Tear = TearRuleKind::Weak;
  const char *Name = "revised";

  /// The model as published in the 10th edition of ECMAScript (Fig. 4).
  static ModelSpec original() {
    return {ScRuleKind::FirstAttempt, SwDefKind::SpecWithInitCase,
            TearRuleKind::Weak, "original"};
  }
  /// Only the §3.1 ARMv8-compilation weakening applied.
  static ModelSpec armFixOnly() {
    return {ScRuleKind::SecondAttempt, SwDefKind::SpecWithInitCase,
            TearRuleKind::Weak, "arm-fix-only"};
  }
  /// The combined fix adopted by TC39 (Fig. 10 + simplified sw).
  static ModelSpec revised() {
    return {ScRuleKind::Final, SwDefKind::Simplified, TearRuleKind::Weak,
            "revised"};
  }
  /// The revised model with the strengthened Tear-Free Reads rule (§6.4).
  static ModelSpec revisedStrongTearFree() {
    return {ScRuleKind::Final, SwDefKind::Simplified, TearRuleKind::Strong,
            "revised+strong-tearfree"};
  }
};

/// Derived relations of a candidate execution under a given sw definition,
/// computed once and shared by the axiom checks. A value type for callers
/// that want their own copy; hot paths use CandidateExecution::derived(),
/// which memoizes the triple on the execution itself.
struct DerivedRelations : DerivedTriple {
  static DerivedRelations compute(const CandidateExecution &CE,
                                  SwDefKind Def);
};

/// Happens-Before Consistency (1): hb ⊆ tot.
bool checkHbConsistency1(const CandidateExecution &CE, const DerivedTriple &D);
/// Happens-Before Consistency (2): no read happens-before a write it reads
/// from.
bool checkHbConsistency2(const CandidateExecution &CE, const DerivedTriple &D);
/// Happens-Before Consistency (3): no read reads a byte from a write when a
/// hb-newer write of that byte is hb-before the read.
bool checkHbConsistency3(const CandidateExecution &CE, const DerivedTriple &D);
/// Tear-Free Reads, weak (Fig. 4) or strong (§6.4).
bool checkTearFreeReads(const CandidateExecution &CE,
                        const DerivedTriple &D, TearRuleKind Rule);
/// The Sequentially Consistent Atomics rule, in the requested variant,
/// against the given tot.
bool checkScAtomics(const CandidateExecution &CE,
                    const DerivedTriple &D, ScRuleKind Rule,
                    const Relation &Tot);

/// \returns true if all tot-independent axioms (HBC2, HBC3, Tear-Free
/// Reads) hold.
bool checkTotIndependentAxioms(const CandidateExecution &CE,
                               const DerivedTriple &D,
                               ModelSpec Spec, std::string *WhyNot = nullptr);

/// Full validity of \p CE (which must carry a tot witness) under \p Spec.
/// \param WhyNot if non-null, receives the name of the first failing axiom.
bool isValid(const CandidateExecution &CE, ModelSpec Spec,
             std::string *WhyNot = nullptr);

/// Decides whether some strict total order over the events makes \p CE
/// valid under \p Spec. CE's own Tot member is ignored. If \p TotOut is
/// non-null and a witness exists, it receives the witnessing order (stable
/// smallest-index tie-break, so the witness is deterministic for a given
/// execution regardless of solver scheduling or thread counts).
///
/// Sound and complete: HBC1 requires tot ⊇ hb and the SC Atomics rule is
/// a conjunction of betweenness constraints with tot-independent side
/// conditions, so the question is handed to \p Solver as a TotProblem
/// (solver/ScConstraints). The overload without a solver argument uses the
/// process default (see defaultSolverKind()).
bool isValidForSomeTot(const CandidateExecution &CE,
                       ModelSpec Spec, Relation *TotOut,
                       const TotSolver &Solver);
bool isValidForSomeTot(const CandidateExecution &CE, ModelSpec Spec,
                       Relation *TotOut = nullptr);

/// Decides whether \p CE is invalid under \p Spec for *every* choice of
/// tot — the exact semantic counterpart of Wickerson-style deadness (§5.2).
bool isInvalidForAllTot(const CandidateExecution &CE,
                        ModelSpec Spec, const TotSolver &Solver);
bool isInvalidForAllTot(const CandidateExecution &CE, ModelSpec Spec);

} // namespace jsmm

#endif // JSMM_CORE_VALIDITY_H
