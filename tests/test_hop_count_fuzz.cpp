// Differential fuzz: fluidics::HopGrid::hops against the reference BFS,
// Router::shortest_route(from, to).size() - 1 (or -1 for an empty route),
// over random regions, roles, faults, activated spares and obstacles. The
// usable bitmap is built cell by cell from UsableCells::usable, so the two
// sides agree on the usable set by construction and differ only in search.
//
// The region shapes cover the bitmap's edge cases: a parallelogram, a
// hexagon, regions with holes and with negative coordinates, and bounding
// boxes 63, 64 and 127 cells wide, whose strides (64, 65, 128) make the
// vertical or diagonal step a whole-word shift, so the kernel's word-carry
// runs at r = 0 under the sanitizers.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fluidics/router.hpp"
#include "hexgrid/region.hpp"

namespace dmfb::fluidics {
namespace {

using biochip::CellHealth;
using biochip::CellRole;

/// Parallelogram of width x height at `origin`, each cell dropped (a hole)
/// with probability `hole_rate`; never empty.
hex::Region holey_parallelogram(hex::HexCoord origin, std::int32_t width,
                                std::int32_t height, double hole_rate,
                                Rng& rng) {
  std::vector<hex::HexCoord> cells;
  for (std::int32_t r = 0; r < height; ++r) {
    for (std::int32_t q = 0; q < width; ++q) {
      if (!rng.bernoulli(hole_rate)) {
        cells.push_back(origin + hex::HexCoord{q, r});
      }
    }
  }
  if (cells.empty()) cells.push_back(origin);
  return hex::Region(std::move(cells));
}

hex::Region random_region(int shape, Rng& rng) {
  switch (shape) {
    case 0:
      return hex::Region::parallelogram(rng.uniform_int(1, 20),
                                        rng.uniform_int(1, 20));
    case 1:
      return hex::Region::hexagon(
          {rng.uniform_int(-10, 10), rng.uniform_int(-10, 10)},
          rng.uniform_int(0, 8));
    case 2:
      return holey_parallelogram({0, 0}, rng.uniform_int(2, 18),
                                 rng.uniform_int(2, 18), 0.2, rng);
    case 3:
      return holey_parallelogram(
          {rng.uniform_int(-40, -5), rng.uniform_int(-40, -5)},
          rng.uniform_int(2, 18), rng.uniform_int(2, 18), 0.1, rng);
    default: {
      // Word-boundary strides: box widths 63, 64 and 127.
      constexpr std::int32_t kWidths[] = {63, 64, 127};
      return holey_parallelogram(
          {rng.uniform_int(-3, 3), rng.uniform_int(-3, 3)},
          kWidths[rng.uniform_int(0, 2)], rng.uniform_int(1, 5), 0.05, rng);
    }
  }
}

struct Tally {
  int compared = 0;
  int same_cell = 0;
  int unusable_endpoint = 0;
  int disconnected = 0;
  int routed = 0;
};

/// Compares hops with the router for `pairs` random (from, to) pairs, plus
/// one from == to pair and the out-of-range endpoints.
void compare(const biochip::HexArray& array, const UsableCells& usable,
             int pairs, Rng& rng, Tally& tally) {
  const HopGrid grid(array);
  std::vector<std::uint64_t> words(grid.word_count(), 0);
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    if (usable.usable(cell)) grid.set(words, cell);
  }
  const Router router(usable);
  HopGrid::Scratch scratch;
  const auto check = [&](hex::CellIndex from, hex::CellIndex to) {
    const std::vector<hex::CellIndex> route = router.shortest_route(from, to);
    const std::int32_t expected =
        route.empty() ? -1 : static_cast<std::int32_t>(route.size()) - 1;
    ASSERT_EQ(grid.hops(words, from, to, scratch), expected)
        << "from " << from << " to " << to << " on " << array.cell_count()
        << " cells, stride " << grid.stride();
    ++tally.compared;
    if (from == to && expected == 0) ++tally.same_cell;
    if (!usable.usable(from) || !usable.usable(to)) {
      ++tally.unusable_endpoint;
    } else if (expected < 0) {
      ++tally.disconnected;
    } else if (expected > 0) {
      ++tally.routed;
    }
  };
  const auto any_cell = [&] {
    return static_cast<hex::CellIndex>(
        rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
  };
  for (int k = 0; k < pairs; ++k) check(any_cell(), any_cell());
  const hex::CellIndex cell = any_cell();
  check(cell, cell);
  check(hex::kInvalidCell, cell);
  check(cell, array.cell_count());
}

TEST(HopCountFuzz, PrimaryWordsAreTheHealthyUsableSet) {
  Rng rng(0x40B5);
  for (int trial = 0; trial < 40; ++trial) {
    const hex::Region region = random_region(trial % 5, rng);
    std::vector<CellRole> roles(static_cast<std::size_t>(region.size()));
    for (CellRole& role : roles) {
      role = rng.bernoulli(0.3) ? CellRole::kSpare : CellRole::kPrimary;
    }
    const biochip::HexArray array(region, roles);
    const HopGrid grid(array);
    const UsableCells usable(array);
    std::vector<std::uint64_t> words(grid.word_count(), 0);
    for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
      if (usable.usable(cell)) grid.set(words, cell);
    }
    EXPECT_TRUE(std::equal(words.begin(), words.end(),
                           grid.primary_words().begin(),
                           grid.primary_words().end()));
    // clear() undoes set().
    for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
      grid.clear(words, cell);
    }
    EXPECT_TRUE(std::all_of(words.begin(), words.end(),
                            [](std::uint64_t word) { return word == 0; }));
  }
}

TEST(HopCountFuzz, HopsMatchTheRouterOnRandomArrays) {
  Rng rng(0x40B6);
  Tally tally;
  for (int trial = 0; trial < 250; ++trial) {
    const hex::Region region = random_region(trial % 5, rng);
    std::vector<CellRole> roles(static_cast<std::size_t>(region.size()));
    const double spare_rate = 0.5 * rng.uniform01();
    for (CellRole& role : roles) {
      role = rng.bernoulli(spare_rate) ? CellRole::kSpare : CellRole::kPrimary;
    }
    biochip::HexArray array(region, roles);
    const double fault_rate = 0.45 * rng.uniform01();
    for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
      if (rng.bernoulli(fault_rate)) {
        array.set_health(cell, CellHealth::kFaulty);
      }
    }
    // Activate a random share of the spares, faulty ones included (they
    // stay unusable), and block a few cells as obstacles.
    UsableCells usable(array);
    const double activate_rate = rng.uniform01();
    for (const hex::CellIndex spare : array.spares()) {
      if (rng.bernoulli(activate_rate)) usable.activate_spare(spare);
    }
    for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
      if (rng.bernoulli(0.03)) usable.block(cell);
    }
    compare(array, usable, 24, rng, tally);
    if (HasFatalFailure()) return;
  }
  // Every outcome class actually occurred.
  EXPECT_GT(tally.same_cell, 50);
  EXPECT_GT(tally.unusable_endpoint, 200);
  EXPECT_GT(tally.disconnected, 50);
  EXPECT_GT(tally.routed, 1000);
}

TEST(HopCountFuzz, OpenGridHopsAreHexDistances) {
  // Fault-free, all-primary parallelograms: every pair routes along a
  // shortest lattice path, so hops equal the hex distance.
  Rng rng(0x40B7);
  for (const std::int32_t width : {1, 2, 63, 64, 65, 127, 128}) {
    const hex::Region region = hex::Region::parallelogram(width, 4);
    const biochip::HexArray array(
        region, std::vector<CellRole>(static_cast<std::size_t>(region.size()),
                                      CellRole::kPrimary));
    const HopGrid grid(array);
    EXPECT_EQ(grid.stride(), width + 1);
    HopGrid::Scratch scratch;
    for (int k = 0; k < 64; ++k) {
      const auto from = static_cast<hex::CellIndex>(
          rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
      const auto to = static_cast<hex::CellIndex>(
          rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
      EXPECT_EQ(grid.hops(grid.primary_words(), from, to, scratch),
                hex::distance(region.coord_at(from), region.coord_at(to)))
          << "width " << width;
    }
  }
}

}  // namespace
}  // namespace dmfb::fluidics
