//===- analysis/Symmetry.h - Duplicate-thread detection ------------------===//
///
/// \file
/// The detector behind the DuplicateThread lint: groups threads whose
/// bodies are interchangeable, because a duplicated litmus thread adds
/// enumeration cost without adding behaviours.
///
/// Two flavours of equivalence are recognised:
///
///   - **exact**: the thread bodies are structurally identical statement by
///     statement (same kinds, accesses, widths, modes, tear-freedom, stored
///     values, registers, and nested branch bodies).
///   - **renamed**: the bodies are identical up to a byte-offset renaming
///     within the same buffer, where every renamed byte is private to the
///     one thread touching it (N filler threads writing disjoint scratch
///     cells). Swapping the threads *and* transposing their private bytes
///     is a program automorphism — buffers are zero-initialised, so the
///     Init event is fixed by any within-block byte permutation.
///
/// Programs whose threads share a skeleton but differ in stored values or
/// access widths are deliberately NOT merged: every field that reaches the
/// event structure participates in the comparison.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_ANALYSIS_SYMMETRY_H
#define JSMM_ANALYSIS_SYMMETRY_H

#include "litmus/Program.h"

#include <vector>

namespace jsmm {

/// The thread-symmetry classes of a program. Threads not in any class are
/// singletons; every reported class has at least two members and is sorted
/// by thread index.
struct ThreadSymmetry {
  std::vector<std::vector<unsigned>> Classes;
  /// Per class: every member is byte-identical to the representative (no
  /// renaming involved).
  std::vector<char> Exact;
};

/// Detects the thread-symmetry classes of \p P (exact and renamed).
ThreadSymmetry threadSymmetry(const Program &P);

} // namespace jsmm

#endif // JSMM_ANALYSIS_SYMMETRY_H
