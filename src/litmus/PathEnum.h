//===- litmus/PathEnum.h - Thread-local control-flow unfolding ------------===//
///
/// \file
/// The thread-local half of the two-layer semantics (§2.1): each thread's
/// body is unfolded into its possible control-flow paths. Reads pick their
/// values arbitrarily at this stage, so a conditional contributes two paths
/// — one taking the branch (constraining the scrutinised register) and one
/// skipping it (with the negated constraint). The memory model later
/// justifies or refutes each choice.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_LITMUS_PATHENUM_H
#define JSMM_LITMUS_PATHENUM_H

#include "litmus/Program.h"

#include <vector>

namespace jsmm {

/// A constraint a path places on the value loaded into a register.
struct RegConstraint {
  unsigned Reg = 0;
  uint64_t Value = 0;
  bool MustEqual = true; ///< false: register must differ from Value
};

/// One control-flow unfolding of a thread: the shared-memory accesses it
/// performs, in sequence, and the register constraints that make this the
/// taken path.
struct ThreadPath {
  std::vector<const Instr *> Accesses;
  std::vector<RegConstraint> Constraints;
};

/// \returns every control-flow path of \p Body. A conditional on a
/// register that no earlier access on the path assigns reads it as 0, so
/// it contributes only the side 0 satisfies, unconstrained.
std::vector<ThreadPath> enumeratePaths(const std::vector<Instr> &Body);

/// \returns the largest number of memory accesses any control-flow path of
/// \p Body performs (every access of every nested body — the all-branches-
/// taken path). Computed by summation, not path enumeration, so it is
/// cheap even for programs whose path count explodes.
unsigned maxPathAccesses(const std::vector<Instr> &Body);

/// \returns an upper bound on the event-universe size of any candidate
/// execution of \p P: one Init event per buffer plus each thread's
/// maxPathAccesses. The Relation machinery caps universes at
/// Relation::MaxSize (1024); frontends compare against this bound to reject
/// too-large programs with a clear error instead of tripping the checked
/// Relation construction mid-enumeration.
unsigned programEventUpperBound(const Program &P);

/// \returns true if register \p Reg holding \p Value satisfies all of the
/// path's constraints that mention Reg.
bool constraintsAllow(const ThreadPath &Path, unsigned Reg, uint64_t Value);

} // namespace jsmm

#endif // JSMM_LITMUS_PATHENUM_H
