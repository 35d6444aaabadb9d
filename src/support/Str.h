//===- support/Str.h - Small string helpers -------------------------------===//
///
/// \file
/// Tiny string-formatting helpers shared by the pretty-printers, benches and
/// examples. Kept deliberately minimal; everything returns std::string.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_STR_H
#define JSMM_SUPPORT_STR_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace jsmm {

/// \returns "A, B, C" for the given parts.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

/// \returns \p S padded with spaces on the right to at least \p Width.
std::string padRight(const std::string &S, size_t Width);

/// \returns \p S padded with spaces on the left to at least \p Width.
std::string padLeft(const std::string &S, size_t Width);

/// \returns the little-endian bytes of \p Value, \p Width bytes wide.
std::vector<uint8_t> bytesOfValue(uint64_t Value, unsigned Width);

/// \returns the value encoded by little-endian \p Bytes.
uint64_t valueOfBytes(const std::vector<uint8_t> &Bytes);

/// \returns "0xNN" hex rendering of a value.
std::string hexByte(uint8_t Byte);

/// Strict decimal parse of \p S into an unsigned. \returns std::nullopt on
/// an empty string, any non-digit character (including signs, whitespace
/// and an 0x prefix), or a value that does not fit — the CLI flag parsers
/// use this so "--threads=1e9", "--threads=-1", "--threads=0x4" and
/// overflowing values are friendly errors instead of crashes or a silent 0.
std::optional<unsigned> parseUnsigned(const std::string &S);

/// Strict parse of a litmus *value*: decimal, or hex with an 0x/0X prefix
/// (a leading zero is decimal, never octal). \returns std::nullopt on any
/// other character or on overflow.
std::optional<uint64_t> parseUnsigned64(const std::string &S);

/// The largest thread or worker count a front door accepts. Pools spawn
/// min(count, items) OS threads, so an unbounded count from outside input
/// could ask for billions of them.
constexpr unsigned MaxThreadCount = 256;

/// Parses the thread-count CLI flag \p Value (strict decimal, see
/// parseUnsigned, at most MaxThreadCount); on failure prints "<Tool>:
/// invalid <Flag> value ..." to stderr and returns std::nullopt so the
/// caller can exit 2. Shared by every jsmm binary so the flag-diagnostic
/// contract cannot drift.
std::optional<unsigned> parseThreadCount(const std::string &Tool,
                                         const std::string &Flag,
                                         const std::string &Value);

/// \returns the entire contents of the file at \p Path, or std::nullopt
/// if it cannot be opened.
std::optional<std::string> readFileText(const std::string &Path);

} // namespace jsmm

#endif // JSMM_SUPPORT_STR_H
