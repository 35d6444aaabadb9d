//===- bench_fig9_revised_shapes.cpp - Experiment E4 (Fig. 9/10) ----------===//
///
/// \file
/// Regenerates the shape-level content of the combined fix (Fig. 9/10):
/// the two SC-DRF shapes are forbidden by the revised rule and allowed by
/// the original one; the Fig. 5 shape flips the other way (the ARM-fix
/// weakening); and the Init special case of synchronizes-with is redundant
/// under the final rule (§3.2's simplification).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Validity.h"
#include "paper/Figures.h"

using namespace jsmm;
using namespace jsmm::bench;
using namespace jsmm::paper;

namespace {

/// Fig. 9 first shape (see tests/validity_test.cpp for the derivation).
CandidateExecution fig9First() {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::SeqCst, 0, 4, 2));
  Evs.push_back(makeRead(3, 0, Mode::Unordered, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 3);
  CE.Asw.set(2, 3);
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  return CE;
}

/// Fig. 9 second shape.
CandidateExecution fig9Second() {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::Unordered, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::SeqCst, 0, 4, 2));
  Evs.push_back(makeRead(3, 0, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  CE.Sb.set(1, 3);
  CE.Asw.set(1, 2);
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  return CE;
}

/// Fig. 5 shape: W_SC -tot- W_Un -tot- R_SC, sw between the SC pair.
CandidateExecution fig5Shape() {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeWrite(2, 1, Mode::Unordered, 0, 4, 2));
  Evs.push_back(makeRead(3, 2, Mode::SeqCst, 0, 4, 1));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 1, 3});
  CE.Tot = totalOrderOver({0, 1, 2, 3}, 4);
  return CE;
}

/// The Init special case: an SC read of Init with an SC write tot-between.
CandidateExecution initShape() {
  std::vector<Event> Evs;
  Evs.push_back(makeInit(0, 4));
  Evs.push_back(makeWrite(1, 0, Mode::SeqCst, 0, 4, 1));
  Evs.push_back(makeRead(2, 1, Mode::SeqCst, 0, 4, 0));
  CandidateExecution CE(std::move(Evs));
  for (unsigned K = 0; K < 4; ++K)
    CE.Rbf.push_back({K, 0, 2});
  CE.Tot = totalOrderOver({0, 1, 2}, 3);
  return CE;
}

} // namespace

int main() {
  Table T("E4: shapes forbidden/allowed by the combined fix",
          "Watt et al. PLDI 2020, Fig. 5, Fig. 9, Fig. 10");

  T.check("Fig. 5 shape forbidden [original]", false,
          isValid(fig5Shape(), ModelSpec::original()));
  T.check("Fig. 5 shape allowed [arm-fix-only]", true,
          isValid(fig5Shape(), ModelSpec::armFixOnly()));
  T.check("Fig. 5 shape allowed [revised]", true,
          isValid(fig5Shape(), ModelSpec::revised()));

  T.check("Fig. 9 shape 1 allowed [original]", true,
          isValid(fig9First(), ModelSpec::original()));
  T.check("Fig. 9 shape 1 forbidden [revised]", false,
          isValid(fig9First(), ModelSpec::revised()));
  T.check("Fig. 9 shape 2 allowed [original]", true,
          isValid(fig9Second(), ModelSpec::original()));
  T.check("Fig. 9 shape 2 forbidden [revised]", false,
          isValid(fig9Second(), ModelSpec::revised()));

  // Neither-stronger-nor-weaker, demonstrated by the two directions above.
  T.check("revised is weaker on Fig. 5 and stronger on Fig. 9", true,
          isValid(fig5Shape(), ModelSpec::revised()) &&
              !isValid(fig9First(), ModelSpec::revised()));

  // §3.2's simplification: with the final rule, dropping the sw Init
  // special case changes nothing on the Init shape.
  ModelSpec FinalWithSpecSw{ScRuleKind::Final, SwDefKind::SpecWithInitCase,
                            TearRuleKind::Weak, "final+spec-sw"};
  T.check("Init shape forbidden via sw special case [original]", false,
          isValid(initShape(), ModelSpec::original()));
  T.check("Init shape forbidden without the special case [revised]", false,
          isValid(initShape(), ModelSpec::revised()));
  T.check("final rule agrees under either sw definition", true,
          isValid(initShape(), FinalWithSpecSw) ==
              isValid(initShape(), ModelSpec::revised()));

  return T.finish();
}
