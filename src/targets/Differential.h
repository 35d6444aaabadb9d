//===- targets/Differential.h - Cross-model differential litmus suite ------===//
///
/// \file
/// The cross-model differential harness: a shared corpus of litmus
/// programs (the classic shapes plus the paper's Fig. 1/6/8/9 shapes and
/// parser-loaded tests) is enumerated under every engine backend —
/// the mixed-size JavaScript model variants, the uni-size JavaScript model
/// of Fig. 12, and the six Thm 6.3 target architectures via their
/// compilation schemes — and the allowed-outcome sets are compared:
///
///   - *soundness* (the Thm 6.3 weakening direction): everything a
///     compiled target allows must be allowed by the revised uni-size
///     JavaScript source model, i.e. the JS model is weak enough to absorb
///     every behaviour the scheme can produce;
///   - *observable weakening*: target-allowed outcomes the original
///     JavaScript model forbids — the §3.1 discovery (the Fig. 6 shape on
///     ARMv8) that forced the paper's repair, surfaced per architecture.
///
/// This is the EMME/PrideMM-style model-evaluation workflow: run one
/// corpus under many models and diff the outcome sets, instead of trusting
/// any single model's verdicts. The table itself is the batch service's
/// differentialTable() (service/LitmusService.h).
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_TARGETS_DIFFERENTIAL_H
#define JSMM_TARGETS_DIFFERENTIAL_H

#include "targets/UniProgram.h"

#include <string>
#include <vector>

namespace jsmm {

/// One corpus entry: a uni-size litmus program with a designated weak
/// outcome whose verdict distinguishes the models.
struct DiffCase {
  std::string Name;
  UniProgram Uni{0};
  Outcome Weak;
  std::string Litmus; ///< source text for parser-loaded entries, else empty

  /// The program the table runs on: the parsed Litmus text, else the u32
  /// rendering of Uni.
  Program program() const;
};

/// The shared corpus of the differential suite (≥ 12 programs): MP, SB,
/// LB, CoRR, IRIW, WRC in relaxed and SeqCst flavours, the Fig. 6 / Fig. 8
/// / Fig. 9 shapes, an exchange race, and litmus-text entries loaded
/// through tools/LitmusParser.
std::vector<DiffCase> differentialCorpus();

/// The large-program corpus: 65+-event programs (a wide SB family padded
/// with filler writer threads, and a 9-thread IRIW chain) whose relations
/// have rows of several words. Kept separate from differentialCorpus() so the
/// ≤64-event golden tables stay byte-identical; the entries are sized so
/// the candidate spaces stay enumerable (few reads, single-writer filler
/// locations).
std::vector<DiffCase> largeDifferentialCorpus();

} // namespace jsmm

#endif // JSMM_TARGETS_DIFFERENTIAL_H
