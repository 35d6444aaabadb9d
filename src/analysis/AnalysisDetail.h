//===- analysis/AnalysisDetail.h - Shared static-analysis internals -------===//
///
/// \file
/// The pieces the footprint classifier (StaticAnalysis.cpp) and the value
/// analysis (StaticValues.cpp) share: thread-body flattening, the per-byte
/// footprint facts, and the diagnostic text helpers. Only litmus programs
/// are analysed: a compiled form reuses its source program's facts
/// through TargetInstr::SourceIdx. Internal to src/analysis/ — frontends
/// include StaticAnalysis.h / StaticValues.h.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ANALYSIS_ANALYSISDETAIL_H
#define JSMM_ANALYSIS_ANALYSISDETAIL_H

#include "analysis/StaticAnalysis.h"
#include "analysis/Symmetry.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace jsmm {
namespace analysis {
namespace detail {

using ByteKey = std::pair<unsigned, unsigned>; ///< (block, absolute byte)

/// Per absolute byte, the facts the footprint lints and the raw value
/// over-approximation need.
struct ByteInfo {
  unsigned Writers = 0; ///< writing accesses covering this byte
  bool Read = false;    ///< some load/RMW reads this byte
  /// Over-approximate value set: the initial byte plus every byte any
  /// write may leave here. Sound because a byte's dynamic value is always
  /// the initial one or one written by some covering write.
  std::set<uint8_t> Possible;
};

/// A branch statement collected during flattening.
struct BranchRecord {
  unsigned Thread = 0;
  unsigned PreIdx = 0;
  bool Equal = true; ///< IfEq vs IfNe
  unsigned CondReg = 0;
  uint64_t Value = 0;
};

/// Byte \p K of the little-endian encoding of \p Value.
uint8_t byteOf(uint64_t Value, unsigned K);

/// "store.sc u32 4" — the access as litmus-like text for messages.
std::string accessText(const AccessRecord &R);

/// Flattens \p Body in pre-order into \p Accesses and \p Branches.
/// \p InstrOf receives, aligned with Accesses, the source Instr of each
/// access (the engine keys its path accesses by these pointers).
void flattenBody(const std::vector<Instr> &Body, unsigned Thread,
                 unsigned Depth, unsigned &PreIdx,
                 std::vector<AccessRecord> &Accesses,
                 std::vector<BranchRecord> &Branches,
                 std::vector<const Instr *> &InstrOf);

/// The initial value of byte \p Byte of buffer \p Block of \p P.
uint8_t initByte(const Program &P, unsigned Block, unsigned Byte);

/// The footprint part of classify(): the may-race relation, the
/// statically-DRF certificate, and the footprint lints (dead-store /
/// uncovered-read) over \p P's already-flattened access table.
void classifyAccesses(const Program &P,
                      const std::vector<AccessRecord> &Accesses,
                      StaticClassification &Out,
                      std::map<ByteKey, ByteInfo> &Bytes);

/// Appends one DuplicateThread diagnostic per symmetry class, anchored at
/// the first duplicate (the class's second member).
void lintDuplicateThreads(const ThreadSymmetry &Sym,
                          StaticClassification &Out);

} // namespace detail
} // namespace analysis
} // namespace jsmm

#endif // JSMM_ANALYSIS_ANALYSISDETAIL_H
