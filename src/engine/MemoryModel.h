//===- engine/MemoryModel.h - Pluggable model predicates ------------------===//
///
/// \file
/// The memory-model interface of the unified execution engine. The engine
/// owns the candidate space — control-flow paths × reads-byte-from
/// justifications × orders — and delegates every model question to a
/// MemoryModel implementation:
///
///   - JsModel wraps a core/Validity ModelSpec: tot-independent axioms are
///     exposed as a *monotone* partial-candidate admission check (a
///     violation on a justified prefix survives any extension, so the
///     engine may prune the whole subtree), and full validity as the
///     exists-a-tot decision over linear extensions of hb;
///   - Armv8Model wraps the mixed-size ARMv8 axiomatic model of
///     armv8/ArmModel, both for complete executions (co chosen) and as the
///     exists-a-coherence decision the skeleton search needs.
///
/// The Thm 6.3 target architectures (x86-TSO, uni-size ARMv8, ARMv7,
/// Power, RISC-V, ImmLite) plug in as TargetModel backends — see
/// engine/TargetModel.h. Further backends plug in the same way without
/// touching the enumeration core.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ENGINE_MEMORYMODEL_H
#define JSMM_ENGINE_MEMORYMODEL_H

#include "armv8/ArmModel.h"
#include "core/Validity.h"

namespace jsmm {

/// Root of the model hierarchy the engine enumerates against.
class MemoryModel {
public:
  virtual ~MemoryModel() = default;
  /// Human-readable model name (for tables, JSON and CLI echo).
  virtual const char *name() const = 0;
};

/// The JavaScript memory model in one of its ModelSpec variants. The
/// tot-order questions (allows / refutableForSomeTot) are decided by the
/// order solver selected in \p Solver; an unset SolverConfig resolves to
/// the process default (--solver=... in the CLI tools).
class JsModel : public MemoryModel {
public:
  JsModel() : Spec(ModelSpec::revised()) {}
  explicit JsModel(ModelSpec Spec, SolverConfig Solver = SolverConfig())
      : Spec(Spec), Solver(Solver) {}

  const ModelSpec &spec() const { return Spec; }
  const SolverConfig &solver() const { return Solver; }
  const char *name() const override { return Spec.Name; }

  /// Monotone admission of a *partially justified* candidate: every read
  /// that is justified at all is justified completely. \returns false when
  /// no completion of \p CE can be valid — the tot-independent axioms
  /// (HBC2, HBC3, Tear-Free Reads) fail on the prefix, or the prefix hb is
  /// already cyclic (HBC1 requires tot ⊇ hb). Sound because rf, sw and hb
  /// only grow as later reads are justified and a completed read's rf
  /// edges are final.
  bool admitsPartial(const CandidateExecution &CE) const;

  /// Full validity: some strict total order makes \p CE valid. Fills
  /// \p TotOut with the witness when non-null.
  bool allows(const CandidateExecution &CE, Relation *TotOut = nullptr) const;

  /// The dual the counter-example search needs: some tot makes \p CE
  /// *invalid*. Fills \p TotOut with the refuting order when non-null.
  bool refutableForSomeTot(const CandidateExecution &CE,
                           Relation *TotOut = nullptr) const;

private:
  ModelSpec Spec;
  SolverConfig Solver;
};

/// The mixed-size ARMv8 axiomatic model (§4).
class Armv8Model : public MemoryModel {
public:
  const char *name() const override { return "armv8"; }

  /// Consistency of a complete execution (rbf and co chosen).
  bool allows(const ArmExecution &X) const;

  /// \returns true if some granule coherence order makes \p X consistent;
  /// fills \p Witness (complete with co) when non-null.
  bool allowsForSomeCo(const ArmExecution &X,
                       ArmExecution *Witness = nullptr) const;
};

} // namespace jsmm

#endif // JSMM_ENGINE_MEMORYMODEL_H
