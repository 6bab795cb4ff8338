// Fuzz-style property tests for the single-droplet Router across random
// arrays and faults: routes stay on healthy, usable cells and are never
// shorter than the hex distance nor longer than the array.
#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fluidics/router.hpp"
#include "sim/fault_model.hpp"

namespace dmfb::fluidics {
namespace {

using biochip::CellHealth;

/// Picks a random usable cell at distance >= 2 from all `taken`.
hex::CellIndex pick_clear_cell(const biochip::HexArray& array,
                               const UsableCells& usable,
                               const std::vector<hex::CellIndex>& taken,
                               Rng& rng) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    const auto cell = static_cast<hex::CellIndex>(
        rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
    if (!usable.usable(cell)) continue;
    bool clear = true;
    for (const auto other : taken) {
      if (hex::distance(array.region().coord_at(cell),
                        array.region().coord_at(other)) < 2) {
        clear = false;
        break;
      }
    }
    if (clear) return cell;
  }
  return hex::kInvalidCell;
}

TEST(RouterFuzz, RoutesNeverTouchFaultyOrReservedCells) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 40; ++trial) {
    auto array =
        biochip::make_dtmb_array(biochip::DtmbKind::kDtmb3_6, 9, 9);
    sim::inject(sim::FaultModel::fixed_count(6), array, rng);
    UsableCells usable(array);  // no reconfiguration: spares all reserved
    const Router router(usable);
    const auto from = pick_clear_cell(array, usable, {}, rng);
    const auto to = pick_clear_cell(array, usable, {}, rng);
    if (from == hex::kInvalidCell || to == hex::kInvalidCell) continue;
    const auto route = router.shortest_route(from, to);
    for (const auto cell : route) {
      EXPECT_EQ(array.health(cell), CellHealth::kHealthy);
      EXPECT_EQ(array.role(cell), biochip::CellRole::kPrimary);
    }
  }
}

TEST(RouterFuzz, ShortestRouteNeverLongerThanDetourBound) {
  // On a fault-free open array the route length equals hex distance + 1;
  // with k faults it can grow, but never beyond cell_count.
  Rng rng(0xF024);
  for (int trial = 0; trial < 40; ++trial) {
    biochip::HexArray array(
        hex::Region::parallelogram(9, 9),
        [](hex::HexCoord) { return biochip::CellRole::kPrimary; });
    sim::inject(
        sim::FaultModel::fixed_count(rng.uniform_int(0, 10)), array, rng);
    UsableCells usable(array);
    const Router router(usable);
    const auto from = pick_clear_cell(array, usable, {}, rng);
    const auto to = pick_clear_cell(array, usable, {}, rng);
    if (from == hex::kInvalidCell || to == hex::kInvalidCell) continue;
    const auto route = router.shortest_route(from, to);
    if (route.empty()) continue;
    const auto lower_bound = hex::distance(array.region().coord_at(from),
                                           array.region().coord_at(to));
    EXPECT_GE(static_cast<std::int32_t>(route.size()), lower_bound + 1);
    EXPECT_LE(static_cast<std::int32_t>(route.size()), array.cell_count());
  }
}

}  // namespace
}  // namespace dmfb::fluidics
