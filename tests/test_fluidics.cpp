// Tests for single-droplet routing: the usable-cell set (faults, spare
// activation, obstacles) and the BFS shortest-path Router.
#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "fluidics/router.hpp"
#include "reconfig/local_reconfig.hpp"

namespace dmfb::fluidics {
namespace {

using biochip::CellHealth;
using biochip::CellRole;
using biochip::DtmbKind;

/// All-primary 8x8 hex array (free routing surface).
biochip::HexArray open_array() {
  return biochip::HexArray(hex::Region::parallelogram(8, 8),
                           [](hex::HexCoord) { return CellRole::kPrimary; });
}

// ------------------------------------------------------------ UsableCells

TEST(UsableCells, HealthyPrimariesUsable) {
  const auto array = open_array();
  const UsableCells usable(array);
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    EXPECT_TRUE(usable.usable(cell));
  }
  EXPECT_FALSE(usable.usable(-1));
  EXPECT_FALSE(usable.usable(array.cell_count()));
}

TEST(UsableCells, FaultyCellsExcluded) {
  auto array = open_array();
  array.set_health(5, CellHealth::kFaulty);
  const UsableCells usable(array);
  EXPECT_FALSE(usable.usable(5));
}

TEST(UsableCells, SparesNeedActivation) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  UsableCells usable(array);
  const hex::CellIndex spare = array.spares().front();
  EXPECT_FALSE(usable.usable(spare));
  usable.activate_spare(spare);
  EXPECT_TRUE(usable.usable(spare));
  EXPECT_THROW(usable.activate_spare(array.primaries().front()),
               ContractViolation);
}

TEST(UsableCells, BlockAndUnblock) {
  const auto array = open_array();
  UsableCells usable(array);
  usable.block(7);
  EXPECT_FALSE(usable.usable(7));
}

TEST(UsableCells, ActivatePlanEnablesReplacementSpares) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
  const hex::CellIndex faulty = array.region().index_of({3, 3});
  array.set_health(faulty, CellHealth::kFaulty);
  const auto plan = reconfig::LocalReconfigurer().plan(array);
  ASSERT_TRUE(plan.success);
  UsableCells usable(array);
  usable.activate_plan(plan);
  EXPECT_TRUE(usable.usable(plan.replacements.front().spare));
}

// ----------------------------------------------------------------- Router

TEST(Router, ShortestRouteOnOpenGridMatchesHexDistance) {
  const auto array = open_array();
  const UsableCells usable(array);
  const Router router(usable);
  const auto from = array.region().index_of({0, 0});
  const auto to = array.region().index_of({5, 3});
  const auto route = router.shortest_route(from, to);
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(route.size(),
            static_cast<std::size_t>(hex::distance({0, 0}, {5, 3})) + 1);
  EXPECT_EQ(route.front(), from);
  EXPECT_EQ(route.back(), to);
}

TEST(Router, RouteStepsAreAdjacent) {
  const auto array = open_array();
  const UsableCells usable(array);
  const Router router(usable);
  const auto route = router.shortest_route(array.region().index_of({0, 7}),
                                           array.region().index_of({7, 0}));
  for (std::size_t i = 1; i < route.size(); ++i) {
    EXPECT_TRUE(hex::adjacent(array.region().coord_at(route[i - 1]),
                              array.region().coord_at(route[i])));
  }
}

TEST(Router, DetoursAroundFaults) {
  auto array = open_array();
  // Wall of faults across column 3, except one gap at r = 6.
  for (std::int32_t r = 0; r < 8; ++r) {
    if (r != 6) {
      array.set_health(array.region().index_of({3, r}),
                       CellHealth::kFaulty);
    }
  }
  const UsableCells usable(array);
  const Router router(usable);
  const auto from = array.region().index_of({0, 0});
  const auto to = array.region().index_of({7, 0});
  const auto route = router.shortest_route(from, to);
  ASSERT_FALSE(route.empty());
  // The route must pass through the single gap.
  bool through_gap = false;
  for (const auto cell : route) {
    EXPECT_NE(array.health(cell), CellHealth::kFaulty);
    if (array.region().coord_at(cell) == hex::HexCoord{3, 6}) {
      through_gap = true;
    }
  }
  EXPECT_TRUE(through_gap);
}

TEST(Router, UnreachableReturnsEmpty) {
  auto array = open_array();
  // Full wall, no gap.
  for (std::int32_t r = 0; r < 8; ++r) {
    array.set_health(array.region().index_of({3, r}), CellHealth::kFaulty);
  }
  // The hex parallelogram still connects around? No: column 3 spans every
  // row, and diagonal steps (+1,-1) cross from column 3-adjacent cells...
  // hex neighbours from column 2 reach only columns 1-3, so the wall
  // separates the halves.
  const UsableCells usable(array);
  const Router router(usable);
  EXPECT_TRUE(router
                  .shortest_route(array.region().index_of({0, 0}),
                                  array.region().index_of({7, 7}))
                  .empty());
}

TEST(Router, ReconfiguredSpareOpensDetour) {
  // On a DTMB array a faulty primary blocks a corridor; activating the
  // matched spare restores reachability.
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
  const hex::CellIndex faulty = array.region().index_of({3, 3});
  array.set_health(faulty, CellHealth::kFaulty);
  const auto plan = reconfig::LocalReconfigurer().plan(array);
  ASSERT_TRUE(plan.success);
  UsableCells usable(array);
  usable.activate_plan(plan);
  const Router router(usable);
  // Route across the array must avoid the faulty cell.
  const auto route = router.shortest_route(array.region().index_of({1, 1}),
                                           array.region().index_of({7, 5}));
  ASSERT_FALSE(route.empty());
  for (const auto cell : route) EXPECT_NE(cell, faulty);
}

}  // namespace
}  // namespace dmfb::fluidics
