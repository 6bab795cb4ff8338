// Regenerates paper Figure 8: the maximal bipartite-matching model of
// reconfigurability. A worked instance on a DTMB(2,6) array: inject faults,
// print the bipartite graph BG(A, B, E) (A = faulty primaries, B = healthy
// adjacent spares), the maximum matching found by each engine, and — in an
// unrepairable variant — the Hall violator that certifies failure.
#include <iostream>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "graph/matching.hpp"
#include "io/ascii_render.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"

int main() {
  using namespace dmfb;

  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 9, 9);
  Rng rng(0xF18);
  sim::inject(sim::FaultModel::fixed_count(7), array, rng);

  std::cout << "Figure 8 - bipartite matching model of local "
               "reconfiguration\n\n";
  const auto faulty = array.faulty_cells(biochip::CellRole::kPrimary);
  std::cout << "Faulty primary cells (set A):";
  for (const auto cell : faulty) {
    std::cout << ' ' << array.region().coord_at(cell);
  }
  std::cout << "\nEdges (faulty primary -> adjacent healthy spare):\n";
  for (const auto cell : faulty) {
    std::cout << "  " << array.region().coord_at(cell) << " ->";
    for (const auto spare : array.spare_neighbors_of(cell)) {
      if (array.health(spare) == biochip::CellHealth::kHealthy) {
        std::cout << ' ' << array.region().coord_at(spare);
      }
    }
    std::cout << '\n';
  }

  const auto plan = reconfig::LocalReconfigurer().plan(array);
  std::cout << "\nMaximum matching (" << plan.replacements.size()
            << " replacements), success = " << (plan.success ? "yes" : "no")
            << ":\n";
  for (const auto& replacement : plan.replacements) {
    std::cout << "  " << array.region().coord_at(replacement.faulty) << " => "
              << array.region().coord_at(replacement.spare) << '\n';
  }
  std::cout << '\n' << io::render_hex(array, &plan, {.legend = true}) << '\n';

  // An unrepairable instance: kill every spare around one primary.
  array.reset_health();
  const auto victim = array.region().index_of({4, 4});
  array.set_health(victim, biochip::CellHealth::kFaulty);
  for (const auto spare : array.spare_neighbors_of(victim)) {
    array.set_health(spare, biochip::CellHealth::kFaulty);
  }
  const auto failing = reconfig::LocalReconfigurer().plan(array);
  std::cout << "Unrepairable variant: success = "
            << (failing.success ? "yes" : "no")
            << "; uncovered faulty cells:";
  for (const auto cell : failing.unrepairable) {
    std::cout << ' ' << array.region().coord_at(cell);
  }
  std::cout << "\n(Hall's condition fails: the faulty cell's spare "
               "neighbourhood is entirely dead.)\n";
  return 0;
}
