// Tests for stimulus-droplet testing and adaptive fault localization.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "sim/fault_model.hpp"
#include "testplan/stimulus_test.hpp"

namespace dmfb::testplan {
namespace {

using biochip::CellHealth;
using biochip::DtmbKind;

biochip::HexArray test_array() {
  return biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
}

TEST(CoveringWalk, VisitsEveryCell) {
  const auto array = test_array();
  const auto walk = plan_covering_walk(array, 0);
  std::set<CellIndex> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited.size(), static_cast<std::size_t>(array.cell_count()));
}

TEST(CoveringWalk, ConsecutiveCellsAdjacent) {
  const auto array = test_array();
  const auto walk = plan_covering_walk(array, 0);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    EXPECT_TRUE(hex::adjacent(array.region().coord_at(walk[i - 1]),
                              array.region().coord_at(walk[i])));
  }
}

TEST(CoveringWalk, ExcludedCellsAvoided) {
  const auto array = test_array();
  const std::unordered_set<CellIndex> excluded{3, 7, 20};
  const auto walk = plan_covering_walk(array, 0, excluded);
  for (const auto cell : walk) {
    EXPECT_FALSE(excluded.contains(cell));
  }
}

TEST(CoveringWalk, SourceMustNotBeExcluded) {
  const auto array = test_array();
  EXPECT_THROW(plan_covering_walk(array, 3, {3}), ContractViolation);
}

TEST(StimulusWalk, CompletesOnHealthyArray) {
  const auto array = test_array();
  const auto walk = plan_covering_walk(array, 0);
  const StimulusOutcome outcome = run_stimulus_walk(array, walk);
  EXPECT_TRUE(outcome.completed);
  EXPECT_FALSE(outcome.detected_fault.has_value());
  EXPECT_EQ(outcome.last_step, static_cast<std::int32_t>(walk.size()) - 1);
}

TEST(StimulusWalk, StallsAtFirstFaultyCell) {
  auto array = test_array();
  const auto walk = plan_covering_walk(array, 0);
  // Make the 10th walk cell faulty.
  array.set_health(walk[10], CellHealth::kFaulty);
  const StimulusOutcome outcome = run_stimulus_walk(array, walk);
  EXPECT_FALSE(outcome.completed);
  ASSERT_TRUE(outcome.detected_fault.has_value());
  EXPECT_EQ(*outcome.detected_fault, walk[10]);
  EXPECT_LT(outcome.last_step, 10);
}

TEST(StimulusWalk, FaultySourceDetectedImmediately) {
  auto array = test_array();
  array.set_health(0, CellHealth::kFaulty);
  const auto outcome = run_stimulus_walk(array, {0, 1});
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(outcome.detected_fault, std::optional<CellIndex>(0));
  EXPECT_EQ(outcome.last_step, -1);
}

TEST(TestSession, CleanChipFindsNothing) {
  const auto array = test_array();
  const TestSessionResult result = run_test_session(array, 0);
  EXPECT_TRUE(result.faults_found.empty());
  EXPECT_TRUE(result.untestable.empty());
  EXPECT_EQ(result.walks_used, 1);
}

TEST(TestSession, FindsSingleFault) {
  auto array = test_array();
  const CellIndex faulty = array.region().index_of({4, 4});
  array.set_health(faulty, CellHealth::kFaulty);
  const TestSessionResult result = run_test_session(array, 0);
  EXPECT_EQ(result.faults_found, std::vector<CellIndex>{faulty});
  EXPECT_TRUE(result.untestable.empty());
  EXPECT_EQ(result.walks_used, 2);  // one stall + one clean pass
}

TEST(TestSession, FindsAllInjectedFaults) {
  Rng rng(314);
  for (int trial = 0; trial < 20; ++trial) {
    auto array = test_array();
    const fault::FaultMap injected =
        sim::inject(sim::FaultModel::fixed_count(5), array, rng);
    if (array.health(0) == CellHealth::kFaulty) continue;  // source dead
    const TestSessionResult result = run_test_session(array, 0);
    // Every found fault is real.
    for (const auto cell : result.faults_found) {
      EXPECT_EQ(array.health(cell), CellHealth::kFaulty);
    }
    // Every injected fault is either found or unreachable/untestable.
    std::set<CellIndex> explained(result.faults_found.begin(),
                                  result.faults_found.end());
    explained.insert(result.untestable.begin(), result.untestable.end());
    for (const auto cell : injected.cells()) {
      EXPECT_TRUE(explained.contains(cell))
          << "fault at cell " << cell << " neither found nor untestable";
    }
    // Untestable cells are only those cut off by faults; with 5 faults on
    // an 8x8 hex array that is rare but possible — all must be unreachable
    // healthy cells or undetected faults, never tested-healthy cells.
  }
}

TEST(TestSession, FaultySourceHandled) {
  auto array = test_array();
  array.set_health(0, CellHealth::kFaulty);
  const TestSessionResult result = run_test_session(array, 0);
  EXPECT_EQ(result.faults_found, std::vector<CellIndex>{0});
  EXPECT_EQ(result.untestable.size(),
            static_cast<std::size_t>(array.cell_count() - 1));
}

TEST(TestSession, IsolatedRegionReportedUntestable) {
  // Fault wall: column q=3 of an all-primary array cuts it in two; cells
  // beyond the wall are untestable from a source on the left.
  biochip::HexArray array(
      hex::Region::parallelogram(7, 4),
      [](hex::HexCoord) { return biochip::CellRole::kPrimary; });
  for (std::int32_t r = 0; r < 4; ++r) {
    array.set_health(array.region().index_of({3, r}), CellHealth::kFaulty);
  }
  const CellIndex source = array.region().index_of({0, 0});
  const TestSessionResult result = run_test_session(array, source);
  // All four wall cells found (the walk keeps probing new frontier cells).
  EXPECT_EQ(result.faults_found.size(), 4u);
  // Right half (columns 4-6, 12 cells) is untestable.
  EXPECT_EQ(result.untestable.size(), 12u);
  for (const auto cell : result.untestable) {
    EXPECT_GE(array.region().coord_at(cell).q, 4);
  }
}

TEST(TestSession, WalkCountBoundedByFaultsPlusOne) {
  Rng rng(2718);
  auto array = test_array();
  sim::inject(sim::FaultModel::fixed_count(6), array, rng);
  if (array.health(0) != CellHealth::kFaulty) {
    const TestSessionResult result = run_test_session(array, 0);
    EXPECT_LE(result.walks_used,
              static_cast<std::int32_t>(result.faults_found.size()) + 1);
  }
}

}  // namespace
}  // namespace dmfb::testplan

// Appended: the optimized (nearest-first) covering walk.
namespace dmfb::testplan {
namespace {

TEST(ShortCoveringWalk, VisitsEveryCell) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  const auto walk = plan_short_covering_walk(array, 0);
  std::set<CellIndex> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited.size(), static_cast<std::size_t>(array.cell_count()));
}

TEST(ShortCoveringWalk, ConsecutiveCellsAdjacent) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  const auto walk = plan_short_covering_walk(array, 0);
  for (std::size_t i = 1; i < walk.size(); ++i) {
    EXPECT_TRUE(hex::adjacent(array.region().coord_at(walk[i - 1]),
                              array.region().coord_at(walk[i])));
  }
}

TEST(ShortCoveringWalk, ShorterThanDfsWalk) {
  for (const std::int32_t side : {6, 10, 14}) {
    const auto array =
        biochip::make_dtmb_array(DtmbKind::kDtmb2_6, side, side);
    const auto dfs = plan_covering_walk(array, 0);
    const auto greedy = plan_short_covering_walk(array, 0);
    EXPECT_LT(greedy.size(), dfs.size()) << "side " << side;
    // Near-optimal: at most 40% overhead over the V-cell lower bound.
    EXPECT_LT(greedy.size(),
              static_cast<std::size_t>(1.4 * array.cell_count()))
        << "side " << side;
  }
}

TEST(ShortCoveringWalk, RespectsExclusions) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  const std::unordered_set<CellIndex> excluded{5, 9, 17};
  const auto walk = plan_short_covering_walk(array, 0, excluded);
  for (const auto cell : walk) {
    EXPECT_FALSE(excluded.contains(cell));
  }
}

TEST(ShortCoveringWalk, UsableAsStimulusPlan) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  const auto walk = plan_short_covering_walk(array, 0);
  array.set_health(walk[12], CellHealth::kFaulty);
  const auto outcome = run_stimulus_walk(array, walk);
  EXPECT_FALSE(outcome.completed);
  EXPECT_EQ(*outcome.detected_fault, walk[12]);
}

}  // namespace
}  // namespace dmfb::testplan
