// Ablation: the paper's two reconfiguration categories head-to-head.
//
//   category 1 — application-dependent: re-place the microfluidic modules
//                on fault-free unused cells (no spares; design complexity);
//   category 2 — application-independent: interstitial spares + local
//                reconfiguration (the paper's proposal).
//
// Same silicon area for both: a plain 16x12 array for re-placement versus a
// DTMB(2,6) array with the same total cell count for spare-based repair of
// a fixed placement. Success criteria:
//   * re-placement: all modules (4 mixers, 4 detectors, 2 transport
//     segments) can be placed on healthy cells with fluidic clearance;
//   * spares: the same module set, placed once on the healthy chip, is
//     repairable (every faulty module cell gets an adjacent healthy spare).
#include <iostream>

#include "biochip/dtmb.hpp"
#include "fluidics/placement.hpp"
#include "io/table.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"

int main() {
  using namespace dmfb;
  using fluidics::ModulePlacer;

  const std::vector<fluidics::HexModuleShape> workload = {
      fluidics::mixer_shape(),      fluidics::mixer_shape(),
      fluidics::mixer_shape(),      fluidics::mixer_shape(),
      fluidics::detector_shape(),   fluidics::detector_shape(),
      fluidics::detector_shape(),   fluidics::detector_shape(),
      fluidics::linear_shape(5),    fluidics::linear_shape(5),
  };

  // Plain array: every cell primary, re-placement is the only defence.
  biochip::HexArray plain(hex::Region::parallelogram(16, 12),
                          [](hex::HexCoord) {
                            return biochip::CellRole::kPrimary;
                          });
  // Same area, DTMB(2,6): fixed placement + interstitial spares.
  biochip::HexArray redundant =
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 16, 12);

  // Fixed placement on the redundant chip: mark module cells as used.
  {
    const ModulePlacer placer(redundant);
    const auto placed = placer.place(workload);
    if (!placed) {
      std::cerr << "workload does not fit the redundant chip\n";
      return 1;
    }
    for (const auto& module : *placed) {
      for (const auto cell : module.cells(redundant)) {
        redundant.set_usage(cell, biochip::CellUsage::kAssayUsed);
      }
    }
  }

  sim::Session spares(redundant);
  io::Table table({"p", "re-placement (plain chip)",
                   "spares, fixed placement (DTMB(2,6))",
                   "spares + re-placement pool"});
  for (const double p : {0.90, 0.93, 0.96, 0.98, 0.99}) {
    sim::YieldQuery query;
    query.fault = sim::FaultModel::bernoulli(p);
    query.runs = 4000;

    // (1) Re-placement on the plain chip: a custom oracle, so a serial
    //     loop over the session's per-run streams.
    std::int64_t placed = 0;
    for (std::int32_t run = 0; run < query.runs; ++run) {
      Rng rng = sim::run_stream(query.seed, run);
      sim::inject(query.fault, plain, rng);
      placed += ModulePlacer(plain).place(workload).has_value();
      plain.reset_health();
    }
    const auto replacement =
        sim::YieldEstimate::from_counts(placed, query.runs);

    // (2) Spare-based repair of the fixed placement.
    query.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
    const auto spare_based = spares.run(query);

    // (3) Both categories together (spares + unused primaries).
    query.pool = reconfig::ReplacementPool::kSparesAndUnusedPrimaries;
    const auto combined = spares.run(query);

    table.row(4)
        .cell(p)
        .cell(replacement.value)
        .cell(spare_based.value)
        .cell(combined.value);
  }
  table.print(std::cout,
              "Ablation - module re-placement vs interstitial spares "
              "(equal-area chips, 4000 runs)");
  std::cout
      << "Re-placement tolerates many faults on a lightly loaded chip but "
         "requires re-running placement (design complexity, paper Section "
         "4); interstitial spares repair a fixed layout in place, and the "
         "combination dominates both.\n";
  return 0;
}
