// Quickstart: the paper's flow in ~40 lines.
//
//   1. Build a defect-tolerant DTMB(2,6) biochip.
//   2. Manufacture it imperfectly (every cell survives with p = 0.97).
//   3. Test it with stimulus droplets to locate the faults.
//   4. Repair it by local reconfiguration (bipartite matching of faulty
//      cells to adjacent spares).
//   5. Estimate the design's manufacturing yield by Monte-Carlo.
//   6. Ask the same question through the session API with adaptive runs.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/defect_tolerant_biochip.hpp"
#include "io/ascii_render.hpp"
#include "sim/session.hpp"

int main() {
  using namespace dmfb;

  // 1. A 12x12 hexagonal-electrode array with interstitial spares: every
  //    primary cell touches two spares, every spare six primaries.
  core::DefectTolerantBiochip chip(biochip::DtmbKind::kDtmb2_6, 12, 12);
  std::cout << "Built " << biochip::dtmb_info(*chip.kind()).name << ": "
            << chip.array().primary_count() << " primaries + "
            << chip.array().spare_count() << " spares (RR = "
            << chip.redundancy_ratio() << ")\n\n";

  // 2. Imperfect manufacturing.
  Rng rng(2025);
  const auto faults = chip.inject(sim::FaultModel::bernoulli(0.97), rng);
  std::cout << "Manufacturing left " << faults.size() << " faulty cells.\n";

  // 3. Stimulus-droplet testing finds them.
  const auto session = chip.test_chip();
  std::cout << "Testing localised " << session.faults_found.size()
            << " faults in " << session.walks_used << " droplet walks.\n";

  // 4. Local reconfiguration repairs the chip (or proves it scrap).
  const auto plan = chip.reconfigure();
  std::cout << "Reconfiguration " << (plan.success ? "SUCCEEDED" : "FAILED")
            << "; replacements:\n";
  for (const auto& replacement : plan.replacements) {
    std::cout << "  faulty " << chip.array().region().coord_at(replacement.faulty)
              << " -> spare "
              << chip.array().region().coord_at(replacement.spare) << '\n';
  }
  std::cout << '\n' << io::render_hex(chip.array(), &plan, {.legend = true});

  // 5. What fraction of manufactured chips is repairable at this p?
  const auto estimate =
      chip.estimate_yield({.fault = sim::FaultModel::bernoulli(0.97)});
  std::cout << "\nMonte-Carlo yield at p = 0.97: " << estimate.value
            << "  (95% CI [" << estimate.ci95.lo << ", " << estimate.ci95.hi
            << "])\n";

  // 6. The same query with adaptive stopping: the session (docs/API.md)
  //    runs only as many deterministic chunks as the target confidence
  //    interval needs.
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.97);
  query.runs = 50000;  // cap; adaptive stopping usually quits much earlier
  query.target_ci_half_width = 0.01;
  const auto adaptive = chip.session().run(query);
  std::cout << "Adaptive session estimate: " << adaptive.value << " after "
            << adaptive.runs << " runs (CI half-width <= 0.01).\n";
  return 0;
}
