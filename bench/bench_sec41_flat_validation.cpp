//===- bench_sec41_flat_validation.cpp - Experiment E6 (§4.1) -------------===//
///
/// \file
/// Regenerates the §4.1 validation experiment: run a diy-generated litmus
/// corpus through the operational simulator (the Flat substitute), collect
/// every operationally-allowed execution, and check that the mixed-size
/// axiomatic ARMv8 model allows each one (soundness).
///
/// Paper row: 11,587 tests, 11,578 complete, 167,014 candidate executions,
/// axiomatic-allows-operational on all of them. Our corpus is smaller (the
/// generator sweeps cycles up to length 4 over a reduced alphabet, in three
/// size variants) but the soundness rate — the actual claim — must be 100%.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "engine/ExecutionEngine.h"
#include "flatsim/FlatSim.h"
#include "gen/Diy.h"

using namespace jsmm;
using namespace jsmm::bench;

int main(int Argc, char **Argv) {
  // A wider sweep can be requested: bench_sec41_flat_validation [MaxEdges].
  unsigned MaxEdges = Argc > 1 ? std::atoi(Argv[1]) : 4;

  Table T("E6: validating the axiomatic model against the operational one",
          "Watt et al. PLDI 2020, section 4.1");

  DiyConfig Cfg;
  Cfg.MinEdges = 2;
  Cfg.MaxEdges = MaxEdges;
  Cfg.MaxThreads = 4;
  // The full alphabet makes length-4 sweeps slow; use the communication
  // edges plus a representative annotation set.
  Cfg.Alphabet = {EdgeKind::Rfe,      EdgeKind::Fre,     EdgeKind::Coe,
                  EdgeKind::PodRR,    EdgeKind::PodRW,   EdgeKind::PodWR,
                  EdgeKind::PodWW,    EdgeKind::PosWR,   EdgeKind::DmbdRR,
                  EdgeKind::DmbdWW,   EdgeKind::DmbStdWW,
                  EdgeKind::CtrldRW,  EdgeKind::AddrdRR, EdgeKind::DatadRW,
                  EdgeKind::AcqPodRR, EdgeKind::PodRelWW};

  std::vector<DiyTest> Corpus = generateCorpus(Cfg);

  uint64_t Tests = 0, MixedSize = 0, Executions = 0, Sound = 0;
  uint64_t WeakBehavioursConfirmed = 0;
  double Ms = timedMs([&] {
    for (const DiyTest &Test : Corpus) {
      ++Tests;
      if (Test.Variant != SizeVariant::Byte)
        ++MixedSize;
      std::set<std::string> AxOutcomes;
      ArmEnumerationResult Ax =
          ExecutionEngine().enumerate(Test.Prog, Armv8Model());
      for (const auto &[O, X] : Ax.Allowed) {
        (void)X;
        AxOutcomes.insert(O.toString());
      }
      uint64_t OpOutcomes = 0;
      forEachFlatExecution(
          Test.Prog, [&](const ArmExecution &X, const Outcome &O) {
            ++Executions;
            ++OpOutcomes;
            if (isArmConsistent(X) && AxOutcomes.count(O.toString()))
              ++Sound;
            return true;
          });
      // The axiomatic model being weaker is expected; count tests where it
      // allows strictly more outcomes than the simulator produced.
      if (AxOutcomes.size() > OpOutcomes)
        WeakBehavioursConfirmed++;
    }
  });

  T.row("corpus size (tests)", "11,587 (full diy corpus)",
        std::to_string(Tests), Tests > 100);
  T.row("mixed-size tests", "2,635", std::to_string(MixedSize),
        MixedSize > 30);
  T.row("operational candidate executions", "167,014",
        std::to_string(Executions), Executions > 1000);
  T.row("axiomatic allows every operational execution", "100%",
        std::to_string(Sound) + "/" + std::to_string(Executions),
        Sound == Executions);
  T.note("tests where the axiomatic model is strictly weaker than the "
         "simulator: " +
         std::to_string(WeakBehavioursConfirmed));
  T.note("sweep time: " + std::to_string(Ms) + " ms (cycles up to length " +
         std::to_string(MaxEdges) + ")");

  return T.finish();
}
