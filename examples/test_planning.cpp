// Off-line testing with stimulus droplets (paper Section 4, refs [10,11]).
//
// A KCl stimulus droplet is steered along a covering walk over every cell.
// A cell with a catastrophic fault (dielectric breakdown, electrode short,
// open connection) cannot actuate the droplet, so the droplet stalls; the
// controller records the culprit, replans around all known-bad cells and
// continues until the walk completes. The resulting fault map feeds local
// reconfiguration.
//
// Build & run:  ./build/examples/test_planning
#include <iostream>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "io/ascii_render.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"
#include "testplan/stimulus_test.hpp"

int main() {
  using namespace dmfb;

  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 10, 8);
  Rng rng(0x7E57);
  const auto injected = sim::inject(
      sim::FaultModel::fixed_count(4), array, rng);

  std::cout << "Hidden manufacturing defects (unknown to the tester):\n";
  for (const auto& record : injected.records) {
    std::cout << "  " << array.region().coord_at(record.cell) << "  "
              << to_string(*record.catastrophic) << '\n';
  }

  const auto walk = testplan::plan_covering_walk(array, 0);
  const auto short_walk = testplan::plan_short_covering_walk(array, 0);
  std::cout << "\nInitial test plan: DFS covering walk = " << walk.size()
            << " droplet moves; optimized nearest-first walk = "
            << short_walk.size() << " moves over " << array.cell_count()
            << " cells (test time ~ walk length).\n";

  const auto session = testplan::run_test_session(array, 0);
  std::cout << "Adaptive test session used " << session.walks_used
            << " stimulus droplets and localised "
            << session.faults_found.size() << " faults:\n";
  for (const auto cell : session.faults_found) {
    std::cout << "  " << array.region().coord_at(cell) << '\n';
  }
  if (!session.untestable.empty()) {
    std::cout << session.untestable.size()
              << " cells were unreachable (cut off by faults) and remain "
                 "untested.\n";
  }

  // Feed the tested fault map into reconfiguration.
  const auto plan = reconfig::LocalReconfigurer().plan(array);
  std::cout << "\nLocal reconfiguration of the tested chip: "
            << (plan.success ? "SUCCESS" : "FAILURE") << '\n'
            << io::render_hex(array, &plan, {.legend = true});
  return plan.success ? 0 : 1;
}
