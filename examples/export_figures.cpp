// Exports publication-quality SVG figures of the paper's layouts into the
// working directory: the five DTMB designs (Figs 3-6) and the multiplexed
// diagnostics chip before/after a 10-fault local reconfiguration (Fig. 12).
//
// Build & run:  ./build/examples/export_figures [output_dir]
#include <filesystem>
#include <fstream>
#include <iostream>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "io/svg_render.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"

int main(int argc, char** argv) {
  using namespace dmfb;

  const std::filesystem::path out_dir = argc > 1 ? argv[1] : "figures";
  std::filesystem::create_directories(out_dir);
  const auto save = [&](const std::string& name, const std::string& svg) {
    const auto path = out_dir / name;
    std::ofstream file(path);
    file << svg;
    std::cout << "wrote " << path.string() << " (" << svg.size()
              << " bytes)\n";
  };

  // Figures 3-6: the five DTMB layouts.
  for (const biochip::DtmbKind kind : biochip::kAllDtmbKinds) {
    const auto array = biochip::make_dtmb_array(kind, 14, 10);
    std::string name(biochip::dtmb_info(kind).name);
    for (char& c : name) {
      if (c == '(' || c == ')' || c == ',') c = '_';
    }
    save("design_" + name + ".svg", io::render_svg(array));
  }

  // Figure 12: the diagnostics chip, pristine and reconfigured.
  auto chip = assay::make_multiplexed_chip();
  save("fig11_multiplexed_chip.svg", io::render_svg(chip.array));

  Rng rng(0xF12B);
  sim::inject(sim::FaultModel::fixed_count(10), chip.array, rng);
  const auto plan =
      reconfig::LocalReconfigurer(
          reconfig::CoveragePolicy::kUsedFaultyPrimaries)
          .plan(chip.array);
  std::cout << "10 faults injected; reconfiguration "
            << (plan.success ? "succeeded" : "failed") << '\n';
  save("fig12_reconfigured_chip.svg", io::render_svg(chip.array, &plan));
  return 0;
}
