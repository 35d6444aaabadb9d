//===- engine/MemoryModel.h - Pluggable model predicates ------------------===//
///
/// \file
/// The model predicates of the unified execution engine. The engine owns
/// the candidate space — control-flow paths × reads-byte-from
/// justifications × orders — and delegates every model question to the
/// model its door takes:
///
///   - JsModel wraps a core/Validity ModelSpec: full validity is the
///     exists-a-tot decision over linear extensions of hb (the engine's
///     JavaScript walk checks the tot-independent axioms itself, on the
///     derived relations it keeps along the walk);
///   - Armv8Model wraps the mixed-size ARMv8 axiomatic model of
///     armv8/ArmModel, both for complete executions (co chosen) and as the
///     exists-a-coherence decision the skeleton search needs.
///
/// The Thm 6.3 target architectures (x86-TSO, uni-size ARMv8, ARMv7,
/// Power, RISC-V, ImmLite) are TargetModel values — see
/// engine/TargetModel.h. The three are plain classes: each engine door
/// takes its own model type, so nothing dispatches through a common base.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ENGINE_MEMORYMODEL_H
#define JSMM_ENGINE_MEMORYMODEL_H

#include "armv8/ArmModel.h"
#include "core/Validity.h"

namespace jsmm {

/// The JavaScript memory model in one of its ModelSpec variants. The
/// tot-order questions (allows / refutableForSomeTot) are decided by the
/// order solver selected in \p Solver; an unset SolverConfig resolves to
/// the process default (--solver=... in the CLI tools).
class JsModel {
public:
  JsModel() : Spec(ModelSpec::revised()) {}
  explicit JsModel(ModelSpec Spec, SolverConfig Solver = SolverConfig())
      : Spec(Spec), Solver(Solver) {}

  const ModelSpec &spec() const { return Spec; }
  const SolverConfig &solver() const { return Solver; }
  /// Human-readable model name (for tables, JSON and CLI echo).
  const char *name() const { return Spec.Name; }

  /// Full validity: some strict total order makes \p CE valid. Fills
  /// \p TotOut with the witness when non-null.
  bool allows(const CandidateExecution &CE, Relation *TotOut = nullptr) const;
  /// The same on derived relations the caller holds: \p D must equal
  /// CE.derived(spec().Sw).
  bool allows(const CandidateExecution &CE, const DerivedTriple &D,
              Relation *TotOut = nullptr) const;

  /// The dual the counter-example search needs: some tot makes \p CE
  /// *invalid*. Fills \p TotOut with the refuting order when non-null.
  bool refutableForSomeTot(const CandidateExecution &CE,
                           Relation *TotOut = nullptr) const;

private:
  ModelSpec Spec;
  SolverConfig Solver;
};

/// The mixed-size ARMv8 axiomatic model (§4).
class Armv8Model {
public:
  const char *name() const { return "armv8"; }

  /// Consistency of a complete execution (rbf and co chosen).
  bool allows(const ArmExecution &X) const;

  /// \returns true if some granule coherence order makes \p X consistent;
  /// fills \p Witness (complete with co) when non-null.
  bool allowsForSomeCo(const ArmExecution &X,
                       ArmExecution *Witness = nullptr) const;
};

} // namespace jsmm

#endif // JSMM_ENGINE_MEMORYMODEL_H
