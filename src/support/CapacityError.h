//===- support/CapacityError.h - Typed capacity failures ------------------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typed exception for "this program/universe exceeds a relation
/// capacity tier". Historically capacity failures were plain
/// std::length_error and the batch service classified them by substring
/// matching on the message ("program too large"), which any unrelated
/// length_error — or a diagnostic that happens to contain those words —
/// could spoof. Every capacity path (checked relation construction, the
/// engine's per-entry-point bounds, the litmus parser's source cap) now
/// throws or reports CapacityError, and classification is on the type.
///
/// CapacityError still derives from std::length_error so pre-existing
/// catch sites keep working.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_SUPPORT_CAPACITYERROR_H
#define JSMM_SUPPORT_CAPACITYERROR_H

#include <stdexcept>
#include <string>

namespace jsmm {

/// A program or relation universe exceeded a cap: Relation::MaxSize, or
/// the mixed-size ARMv8 model's ArmMaxEvents.
class CapacityError : public std::length_error {
public:
  explicit CapacityError(const std::string &What)
      : std::length_error(What) {}
};

} // namespace jsmm

#endif // JSMM_SUPPORT_CAPACITYERROR_H
