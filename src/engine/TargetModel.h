//===- engine/TargetModel.h - Target architectures as engine backends -----===//
///
/// \file
/// The Thm 6.3 target architectures (targets/TargetModels.h) as engine
/// backends, so ExecutionEngine::enumerate() — with its incremental
/// pruning and sharded threading — runs on x86-TSO, ARMv7, Power, RISC-V,
/// ImmLite and uni-size ARMv8, not just the JavaScript and mixed-size
/// ARMv8 models.
///
/// A target candidate is a reads-from justification per read of a compiled
/// program (targets/TargetCompile.h) plus a per-location coherence order.
/// The engine walks that space once for every column of a job
/// (ExecutionEngine::enumerateOutcomes over several compiled forms),
/// pruning rf prefixes with targetAdmits (po-loc ∪ rf acyclic) and
/// checking each backend's final axiom (targetFinalAxiom) at the leaves;
/// allows() is the full predicate on one complete execution.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ENGINE_TARGETMODEL_H
#define JSMM_ENGINE_TARGETMODEL_H

#include "engine/MemoryModel.h"
#include "targets/TargetCompile.h"

#include <map>
#include <vector>

namespace jsmm {

/// One Thm 6.3 target architecture as an engine backend.
class TargetModel {
public:
  explicit TargetModel(TargetArch Arch) : Arch(Arch) {}

  TargetArch arch() const { return Arch; }
  /// CLI-style backend name ("x86-tso", "armv8-uni", "armv7", "power",
  /// "riscv", "immlite").
  const char *name() const;

  /// Consistency of a complete execution (rf and co chosen): dispatches to
  /// the architecture's axiomatic predicate.
  bool allows(const TargetExecution &X) const;

  /// All six target backends, in TargetArch declaration order.
  static const std::vector<TargetModel> &all();
  /// \returns the backend with CLI name \p Name, or nullptr.
  static const TargetModel *byName(const std::string &Name);

private:
  TargetArch Arch;
};

/// Results of enumerating a compiled program under a target backend.
struct TargetEnumerationResult {
  /// Allowed outcomes, each with one witnessing consistent execution.
  std::map<Outcome, TargetExecution> Allowed;
  uint64_t CandidatesConsidered = 0;
  uint64_t ConsistentCandidates = 0;

  bool allows(const Outcome &O) const { return Allowed.count(O) != 0; }
  std::vector<std::string> outcomeStrings() const {
    std::vector<std::string> Out;
    for (const auto &[O, Witness] : Allowed) {
      (void)Witness;
      Out.push_back(O.toString());
    }
    return Out;
  }
};

} // namespace jsmm

#endif // JSMM_ENGINE_TARGETMODEL_H
