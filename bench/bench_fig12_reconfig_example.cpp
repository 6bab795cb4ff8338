// Regenerates paper Figures 11 and 12: the multiplexed in-vitro diagnostics
// biochip mapped onto DTMB(2,6) — 252 primary cells (108 used by the
// assays) + 91 spare cells — and a successful local reconfiguration in the
// presence of 10 random faulty cells (Fig. 12(b)).
#include <iostream>

#include "assay/multiplexed_chip.hpp"
#include "common/rng.hpp"
#include "io/ascii_render.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"
#include "yield/analytic.hpp"

int main() {
  using namespace dmfb;

  auto chip = assay::make_multiplexed_chip();
  std::cout << "Figure 11/12(a) - DTMB(2,6)-based multiplexed diagnostics "
               "chip\n"
            << "  primaries: " << chip.array.primary_count()
            << " (assay-used: " << chip.array.used_count()
            << "), spares: " << chip.array.spare_count()
            << ", total: " << chip.array.cell_count() << '\n'
            << "  paper:     252 (108 used), 91 spares, 343 total\n"
            << "  no-redundancy yield of the 108 used cells at p=0.99: "
            << yield::used_cells_yield(chip.array.used_count(), 0.99)
            << "  (paper: 0.3378)\n\n";

  std::cout << io::render_hex(chip.array, nullptr, {.legend = true}) << '\n';

  // Fig. 12(b): 10 random faults, then local reconfiguration. The seed is
  // chosen so several faults land on assay cells, as in the paper's figure.
  Rng rng(0xF004);
  const auto faults = sim::inject(
      sim::FaultModel::fixed_count(10), chip.array, rng);
  std::cout << "Injected 10 random faults:\n";
  for (const auto& record : faults.records) {
    std::cout << "  " << chip.array.region().coord_at(record.cell) << " ("
              << to_string(*record.catastrophic) << ")\n";
  }
  const auto plan =
      reconfig::LocalReconfigurer(
          reconfig::CoveragePolicy::kUsedFaultyPrimaries)
          .plan(chip.array);
  std::cout << "\nLocal reconfiguration "
            << (plan.success ? "succeeded" : "FAILED") << "; "
            << plan.replacements.size()
            << " faulty assay cells replaced by adjacent spares:\n";
  for (const auto& replacement : plan.replacements) {
    std::cout << "  " << chip.array.region().coord_at(replacement.faulty)
              << " => " << chip.array.region().coord_at(replacement.spare)
              << '\n';
  }
  std::cout << '\n'
            << io::render_hex(chip.array, &plan, {.legend = true}) << '\n';
  return plan.success ? 0 : 1;
}
