//===- tools/LitmusParser.h - Text format for JS litmus tests -------------===//
///
/// \file
/// A small text format for JavaScript litmus tests, consumed by the
/// jsmm-run command-line tool:
///
/// \code
///   name MP
///   buffer 1024
///   thread
///     store u32 0 = 3
///     store.sc u32 4 = 5
///   thread
///     r0 = load.sc u32 4
///     if r0 == 5
///       r1 = load u32 0
///     end
///   forbid 1:r0=5 1:r1=0
///   allow  1:r0=5 1:r1=3
/// \endcode
///
/// Access forms: `load`/`store` with an optional `.sc` suffix and a width
/// token (`u8`, `u16`, `u32`, `u64`, or `dv<N>` for an N-byte DataView
/// access), plus `exchange` (always SeqCst). `forbid`/`allow` lines state
/// expectations checked against the chosen model.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TOOLS_LITMUSPARSER_H
#define JSMM_TOOLS_LITMUSPARSER_H

#include "exec/Outcome.h"
#include "litmus/Program.h"

#include <optional>
#include <string>
#include <vector>

namespace jsmm {

/// One expectation line of a litmus file.
struct LitmusExpectation {
  bool Allowed = false; ///< `allow` vs `forbid`
  Outcome O;
};

/// A parsed litmus file.
struct LitmusFile {
  Program P{4};
  std::vector<LitmusExpectation> Expectations;
  /// Per thread, the 1-based source line of every statement in pre-order
  /// (If* statements count, their bodies follow) — the index space of
  /// analysis::AccessRecord::PreIdx / LintDiag::PreIdx, so diagnostics
  /// map back to source lines. Empty for files built programmatically.
  std::vector<std::vector<unsigned>> InstrLines;
  /// 1-based source line of each `thread` directive (parallel to the
  /// program's threads; empty for programmatic files).
  std::vector<unsigned> ThreadLines;
};

/// Structured parse failure: the "line N: reason" message plus a typed
/// capacity marker. TooLarge is set only by the parser's own event-bound
/// rejection (the program parsed but exceeds Relation::MaxSize events),
/// never inferred from message text — callers that need to distinguish
/// "too large" from ordinary parse errors (the batch service's job status)
/// classify on this flag, not on substrings a user-controlled diagnostic
/// could spoof.
struct LitmusParseDiag {
  std::string Message;
  bool TooLarge = false;
};

/// Parses the litmus text \p Source. On failure returns std::nullopt and,
/// when \p Error is non-null, a "line N: reason" message.
std::optional<LitmusFile> parseLitmus(const std::string &Source,
                                      std::string *Error = nullptr);

/// As above, with the structured diagnostic.
std::optional<LitmusFile> parseLitmus(const std::string &Source,
                                      LitmusParseDiag &Diag);

/// Renders \p File back to the litmus text format. For any parseable
/// source, parse and emit are mutually inverse up to formatting:
/// parseLitmus(emitLitmus(*parseLitmus(S))) reproduces the same program
/// and expectations, and re-emitting is a fixed point. Only block-0
/// accesses are expressible in the format (the parser never produces
/// others).
std::string emitLitmus(const LitmusFile &File);

} // namespace jsmm

#endif // JSMM_TOOLS_LITMUSPARSER_H
