//===- analysis/StaticAnalysis.h - Static litmus pre-analysis -------------===//
///
/// \file
/// Flow-insensitive, branch- and byte-precise static analysis over litmus
/// programs, run before any enumeration:
///
///   - a per-thread over-approximate shared-byte footprint (which absolute
///     bytes each thread may read or write, on any control-flow path);
///   - a sound **may-race** relation over access pairs, mirroring the
///     paper's data-race definition (Fig. 7) conservatively: two accesses
///     may race when they are on distinct threads, their byte ranges
///     overlap, at least one writes, and they are not both SeqCst on the
///     identical range. Every dynamic race is between events of such a
///     pair, so an empty relation is a **statically-DRF certificate**:
///     by the SC-DRF theorem (§3.2/Thm 6.1) and the Thm 6.3 compilation
///     results, the program's verdict table on every backend is the SC
///     interleaving table (analysis/ScEnumeration.h computes it; the
///     service answers such a job from it). The certificate is
///     deliberately stronger than dynamic race-freedom — Fig. 8's
///     SC-DRF counter-example is dynamically race-free but statically
///     flagged (SC write vs unordered guarded read), which is exactly
///     what keeps that shortcut sound on the *original* model too.
///   - structured lint diagnostics over the same footprint, for corpus
///     hygiene tooling (the jsmm-lint front door).
///
/// A compiled Thm 6.3 form is not analysed on its own. Each of its
/// accesses maps one-to-one to a source access through
/// TargetInstr::SourceIdx, and in the uni-size fragment every source
/// access covers exactly its cell, so the source facts (may-races, the
/// DRF certificate, may-rf sets) are the compiled form's facts too. Only
/// the redundant-fence lints read the compiled instructions (fenceLints).
///
/// Statement positions are reported as pre-order indices within each
/// thread (If* statements count, their bodies follow them), aligned with
/// LitmusFile::InstrLines so front ends can map diagnostics to source
/// lines.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ANALYSIS_STATICANALYSIS_H
#define JSMM_ANALYSIS_STATICANALYSIS_H

#include "litmus/Program.h"
#include "targets/TargetCompile.h"

#include <string>
#include <vector>

namespace jsmm {
namespace analysis {

/// One shared-memory access of a flattened thread body.
struct AccessRecord {
  unsigned Thread = 0;
  /// Pre-order statement index within the thread (If* statements count),
  /// aligned with LitmusFile::InstrLines.
  unsigned PreIdx = 0;
  Instr::Kind K = Instr::Kind::Load;
  Acc Access;
  uint64_t Value = 0; ///< stored value (Store/Rmw)
  unsigned Dst = 0;   ///< destination register (Load/Rmw)
  unsigned Depth = 0; ///< branch nesting depth (0 = unconditional)

  bool isWrite() const { return K != Instr::Kind::Load; }
  bool isRead() const { return K != Instr::Kind::Store; }
};

/// A pair of access-table indices (A < B) that may constitute a Fig. 7
/// data race in some execution.
struct MayRacePair {
  unsigned A = 0;
  unsigned B = 0;
};

/// The lint diagnostics jsmm-lint reports (exit 1 on any finding). The
/// may-race relation is informational — litmus tests are racy by design —
/// and never a lint.
enum class LintKind : uint8_t {
  /// A store whose written bytes no load of any thread may observe: it
  /// cannot influence any outcome (outcomes are register valuations).
  DeadStore,
  /// A read of bytes no write and no nonzero `init` covers: it always
  /// reads 0, which usually means a typo'd offset.
  UncoveredRead,
  /// An `if` whose condition no over-approximated register value can
  /// satisfy (IfEq) or refute (IfNe): the branch body is dead / the guard
  /// is vacuous.
  DeadBranch,
  /// Threads with interchangeable bodies (analysis/Symmetry exact or
  /// private-byte-renamed classes): duplicated litmus threads add
  /// enumeration cost without adding behaviours.
  DuplicateThread,
  /// Compiled forms only (fenceLints): a fence with no same-thread
  /// memory access on one side orders nothing. Scheme-inserted trailing
  /// fences (e.g. the ARMv7 `ldr; dmb` SC-load lowering at the end of a
  /// thread) trip this by construction, so the default jsmm-lint path
  /// does not lint compiled forms.
  RedundantFence,
  /// A read whose static may-rf candidate set (StaticValues.h) yields one
  /// value on every justification: the read cannot discriminate
  /// executions, which usually means a misplaced flag or offset. Reads
  /// that are already UncoveredRead are not double-reported.
  ConstantRead,
};

/// \returns the stable kebab-case name ("dead-store", ...). The names are
/// the jsmm-lint output vocabulary and the lint-expect comment tokens.
const char *lintKindName(LintKind K);

/// One structured diagnostic.
struct LintDiag {
  LintKind Kind = LintKind::DeadStore;
  int Thread = -1; ///< thread index (always set by the current lints)
  /// Pre-order statement index within Thread, or -1 for a thread-level
  /// diagnostic (DuplicateThread).
  int PreIdx = -1;
  std::string Message;
};

/// The full classification of one program.
struct StaticClassification {
  /// Flattened accesses, thread-major in pre-order.
  std::vector<AccessRecord> Accesses;
  /// May-race pairs over Accesses indices, lexicographically sorted.
  std::vector<MayRacePair> MayRaces;
  /// True iff MayRaces is empty: no execution of the program contains a
  /// Fig. 7 data race, on any path, under any model.
  bool StaticallyDrf = false;
  std::vector<LintDiag> Lints;
};

/// Classifies the litmus program \p P. Equivalent to
/// `analyzeValues(P).C` (StaticValues.h) — the classification is the
/// footprint-and-lints slice of the full value analysis.
StaticClassification classify(const Program &P);

/// The RedundantFence lints of the compiled form \p CT, with PreIdx the
/// compiled instruction index within the thread.
std::vector<LintDiag> fenceLints(const CompiledTarget &CT);

} // namespace analysis
} // namespace jsmm

#endif // JSMM_ANALYSIS_STATICANALYSIS_H
