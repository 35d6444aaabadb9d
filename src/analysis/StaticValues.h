//===- analysis/StaticValues.h - Value-aware static pruning tier ----------===//
///
/// \file
/// The second static tier on top of StaticAnalysis.h: a flow-insensitive
/// abstract interpretation over litmus programs whose facts the engine
/// uses to prune candidate enumeration without changing verdict tables.
/// One analysis serves a whole job: the JavaScript columns read it
/// directly, and the target columns read it through
/// TargetInstr::SourceIdx (see StaticAnalysis.h for why the source facts
/// are the compiled form's).
///
/// The analysis computes, per program:
///
///   - a **byte classification** of every shared byte touched by any
///     access: read-only (no writer — its value is the `init` constant),
///     single-writer, or multi-writer;
///   - per read, a **static may-rf candidate set**: for each byte of the
///     read's range, the init write and the subset of covering writes the
///     JS validity axioms (and, on targets, per-location coherence) do
///     not statically refute. Two sound exclusion rules, both phrased
///     over the happens-before base sb ∪ sw ∪ init-edges, which every
///     backend's validity predicate contains:
///       E1  a same-thread write *after* the read in pre-order. In this
///           structured If-body-only language, pre-order restricted to
///           any single control-flow path is execution order, so such an
///           rf edge has hb(R,W) — refuted by HBC2 (JS) and by
///           po ∪ rf per-location acyclicity / Hb;Eco irreflexivity
///           (every target backend, incl. ImmLite's COHERENCE axiom).
///       E2  a write shadowed by an *unconditional* (depth-0) same-thread
///           covering write between it and the read: hb(W,C), hb(C,R) and
///           C covers the byte — refuted by HBC3 (JS) and by coherence
///           (fr/co cycle, resp. Hb;Eco) on targets. With W = Init this
///           excludes the init write (hb(Init,C) always holds).
///     The set is a superset of every dynamically observable rf edge on
///     every backend — the engine can skip excluded writers without
///     losing a single valid candidate (tests/static_values_test.cpp
///     pins this against full enumeration).
///   - per read, the **refined possible value sets** induced by its
///     may-rf set (byte-wise, like StaticAnalysis' raw sets but with the
///     excluded writers and — where the init write is shadowed — the
///     init byte removed), and a **constant** verdict when every byte is
///     a singleton;
///   - **register constants**: (thread, register) pairs all of whose
///     assigning reads are constant with the same value, propagated into
///     branch conditions: pathFeasible() refutes an enumerated control
///     path when one of its branch constraints contradicts a constant
///     read *on that path* (a constraint whose register has no assigning
///     read on the path is dynamically vacuous — the engine only
///     evaluates constraints when an assigning read completes — so it
///     never refutes the path).
///
/// The classification slice (footprints, may-races, lints — now
/// including the value-aware DeadBranch and the ConstantRead kinds) is
/// exposed as StaticValues::C; `classify()` is this analysis' facade.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ANALYSIS_STATICVALUES_H
#define JSMM_ANALYSIS_STATICVALUES_H

#include "analysis/StaticAnalysis.h"
#include "litmus/PathEnum.h"

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace jsmm {
namespace analysis {

/// How many distinct writes may reach a shared byte.
enum class ByteClass : uint8_t {
  ReadOnly,     ///< no write covers the byte; its value is the init byte
  SingleWriter, ///< exactly one write covers it
  MultiWriter,  ///< two or more writes cover it
};

/// \returns "read-only" / "single-writer" / "multi-writer".
const char *byteClassName(ByteClass C);

/// Static facts about one shared byte.
struct ByteFacts {
  ByteClass Class = ByteClass::ReadOnly;
  uint8_t Init = 0;     ///< initial value (Program::initBytes or 0)
  unsigned Writers = 0; ///< covering writing accesses
  bool Read = false;    ///< some load/RMW reads this byte
};

/// The byte facts of a program, flat: one ByteFacts slot per touched
/// byte. The touched bytes are kept as maximal runs in (block, offset)
/// order, each run's slots contiguous, so every access's bytes are
/// consecutive slots of one run and the table is as large as the
/// program's footprint, whatever size its buffers are declared.
class ByteTable {
public:
  /// Appends the run of touched bytes [\p Begin, \p End) of \p Block,
  /// which must follow every run appended so far in (block, offset)
  /// order; \returns the slot of its first byte.
  unsigned addRun(unsigned Block, unsigned Begin, unsigned End);
  ByteFacts &slot(unsigned Slot) { return Facts[Slot]; }

  /// The facts of the (block, byte) \p Key; throws std::out_of_range when
  /// no access touches it.
  const ByteFacts &at(std::pair<unsigned, unsigned> Key) const;
  /// The number of touched bytes.
  size_t size() const { return Facts.size(); }

private:
  struct Run {
    unsigned Block, Begin, End, Slot;
  };
  std::vector<Run> Runs;
  std::vector<ByteFacts> Facts;
};

/// The may-rf candidate set of one byte of one read: which writes could
/// justify it in *some* valid execution of *some* backend.
struct MayRfByte {
  /// True when the init write may justify the byte (false iff an
  /// unconditional same-thread covering write precedes the read).
  bool Init = true;
  /// Access-table indices of the non-excluded covering writes, ascending.
  std::vector<unsigned> Writers;
};

/// The value-analysis facts of one read access.
struct ReadMayRf {
  unsigned AccessIdx = 0; ///< index into StaticValues::C.Accesses
  /// Per byte of the read's range (offset 0 = Access.Offset).
  std::vector<MayRfByte> Bytes;
  /// Refined per-byte possible value sets induced by Bytes.
  std::vector<std::set<uint8_t>> Possible;
  /// True when every byte's refined set is a singleton: the read yields
  /// ConstantValue on every justification.
  bool Constant = false;
  uint64_t ConstantValue = 0;
};

/// The full value analysis of one program. Built once per job (when the
/// job's Static flag is on) and consulted, under
/// EngineConfig::StaticFastPath, by the reads-from walk and the
/// path-combination walk of every column.
struct StaticValues {
  /// The footprint classification (accesses, may-races, lints) — what
  /// `classify()` returns.
  StaticClassification C;

  /// Per touched shared byte, its classification. The service drops it
  /// after reading the summary; only jsmm-run --stats and tests read it.
  ByteTable Bytes;

  /// One entry per read access, in access-table order.
  std::vector<ReadMayRf> Reads;
  /// Access index -> index into Reads, or -1 for writes.
  std::vector<int> ReadIdxOfAccess;

  /// (thread, register) -> the constant value every assigning read
  /// yields. Absent when any assigning read is non-constant or two
  /// disagree (or the register is never assigned).
  std::map<std::pair<unsigned, unsigned>, uint64_t> RegConstants;

  /// (source Instr, access index) pairs sorted by pointer; accessOf()
  /// searches them. The engine keys its enumerated path accesses by these
  /// pointers; a compiled form's events carry the index itself
  /// (TargetEvent::SourceIdx).
  std::vector<std::pair<const Instr *, unsigned>> AccessOfInstr;

  /// Writer candidates excluded across all reads and bytes (E1 + E2 +
  /// shadowed init writes) — the statically refuted rf edges.
  uint64_t MayRfExcluded = 0;

  /// \returns the access index of \p I, or -1 when \p I is not a
  /// load, store or exchange of the analysed program.
  int accessOf(const Instr *I) const;

  /// \returns the may-rf facts of access \p AccessIdx, or nullptr when it
  /// is not a read.
  const ReadMayRf *readMayRf(unsigned AccessIdx) const {
    int R = ReadIdxOfAccess[AccessIdx];
    return R < 0 ? nullptr : &Reads[static_cast<size_t>(R)];
  }

  /// \returns false when some branch constraint of \p Path contradicts a
  /// constant assigning read present on the path — no valid candidate
  /// execution follows the path, on any backend. Sound to skip: the
  /// engine discharges constraints exactly when an on-path assigning
  /// read completes, and a constant read completes with its constant.
  bool pathFeasible(const ThreadPath &Path) const;
};

/// Runs the value analysis on the litmus program \p P.
StaticValues analyzeValues(const Program &P);

} // namespace analysis
} // namespace jsmm

#endif // JSMM_ANALYSIS_STATICVALUES_H
