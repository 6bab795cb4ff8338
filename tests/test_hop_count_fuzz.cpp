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
//
// The batch entry (HopGrid::hops over a list of pairs) is checked against
// the same router answers, with every kernel build the CPU runs
// (fluidics::hop_kernels: AVX2 at 4 lanes where the CPU has it, the
// default ISA at 2 lanes everywhere), in batches of 1-9 pairs, so full,
// partial and several-vector batches all occur. Each array also gets one
// mixed batch holding an unusable endpoint, a from == to pair, a
// disconnected pair and routed pairs of different lengths, and a direct
// kernel call checks that the idle lanes of a partial batch answer -1.
//
// The geodesic certificate (PrimaryGeodesics) is checked the same way:
// whenever its table settles a transport, the router and HopGrid must both
// route it in exactly the hex distance, over the random arrays above and
// DTMB(1,6)/(3,6)/(4,4) arrays, with random anchors, faults and activated
// spares.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
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
  int batches = 0;        ///< batch-entry calls, every kernel
  int mixed_batches = 0;  ///< batches holding every outcome class
};

/// The bit HopGrid gives `cell`, read back through set().
std::int32_t bit_of(const HopGrid& grid, hex::CellIndex cell) {
  std::vector<std::uint64_t> words(grid.word_count(), 0);
  grid.set(words, cell);
  for (std::size_t w = 0; w < words.size(); ++w) {
    if (words[w] != 0) {
      return static_cast<std::int32_t>(w * 64) +
             std::countr_zero(words[w]);
    }
  }
  return -1;
}

/// Calls every kernel build directly with 1 to lanes - 1 of `pairs` (each
/// pair's endpoints usable and distinct, as the kernel requires): the used
/// lanes answer `expected`, the idle ones -1.
void check_idle_lanes(const HopGrid& grid,
                      const std::vector<std::uint64_t>& words,
                      const std::vector<HopGrid::Pair>& pairs,
                      const std::vector<std::int32_t>& expected) {
  for (const HopKernel& kernel : hop_kernels()) {
    std::vector<std::uint64_t> buffer(hop_buffer_words(
        static_cast<std::int32_t>(grid.word_count()), grid.stride(),
        kernel.lanes));
    for (std::int32_t used = 1;
         used < kernel.lanes && used <= static_cast<std::int32_t>(pairs.size());
         ++used) {
      std::int32_t from_bits[kMaxHopLanes] = {};
      std::int32_t to_bits[kMaxHopLanes] = {};
      std::int32_t hops[kMaxHopLanes] = {-7, -7, -7, -7};
      for (std::int32_t k = 0; k < used; ++k) {
        from_bits[k] = bit_of(grid, pairs[static_cast<std::size_t>(k)].from);
        to_bits[k] = bit_of(grid, pairs[static_cast<std::size_t>(k)].to);
      }
      HopSearch search;
      search.usable = words.data();
      search.words = static_cast<std::int32_t>(grid.word_count());
      search.stride = grid.stride();
      search.pairs = used;
      search.from_bits = from_bits;
      search.to_bits = to_bits;
      search.buffer = buffer.data();
      search.hops = hops;
      kernel.search(search);
      for (std::int32_t k = 0; k < kernel.lanes; ++k) {
        ASSERT_EQ(hops[k], k < used ? expected[static_cast<std::size_t>(k)]
                                    : -1)
            << kernel.isa << " lane " << k << " of " << used << " used";
      }
    }
  }
}

/// Compares hops with the router for `pairs` random (from, to) pairs, plus
/// one from == to pair and the out-of-range endpoints: one pair per call,
/// then in batches of 1-9 pairs with every kernel build.
void compare(const biochip::HexArray& array, const UsableCells& usable,
             int pairs, Rng& rng, Tally& tally) {
  const HopGrid grid(array);
  std::vector<std::uint64_t> words(grid.word_count(), 0);
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    if (usable.usable(cell)) grid.set(words, cell);
  }
  const Router router(usable);
  HopGrid::Scratch scratch;
  std::vector<HopGrid::Pair> checked;
  std::vector<std::int32_t> answers;
  const auto check = [&](hex::CellIndex from, hex::CellIndex to) {
    const std::vector<hex::CellIndex> route = router.shortest_route(from, to);
    const std::int32_t expected =
        route.empty() ? -1 : static_cast<std::int32_t>(route.size()) - 1;
    const HopGrid::Pair pair{from, to};
    std::int32_t counted = -1;
    grid.hops(words, {&pair, 1}, {&counted, 1}, scratch);
    ASSERT_EQ(counted, expected)
        << "from " << from << " to " << to << " on " << array.cell_count()
        << " cells, stride " << grid.stride();
    checked.push_back({from, to});
    answers.push_back(expected);
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
  if (::testing::Test::HasFatalFailure()) return;

  // The mixed batch: one pair of each outcome class found above, plus the
  // routed pairs of the shortest and the longest length, shuffled.
  std::vector<std::size_t> mixed;
  const auto first_of = [&](auto&& is_class) {
    for (std::size_t p = 0; p < checked.size(); ++p) {
      if (is_class(checked[p], answers[p])) {
        mixed.push_back(p);
        return true;
      }
    }
    return false;
  };
  const auto usable_pair = [&](const HopGrid::Pair& pair) {
    return usable.usable(pair.from) && usable.usable(pair.to);
  };
  const bool unusable = first_of([&](const HopGrid::Pair& pair,
                                     std::int32_t) {
    return !usable_pair(pair);
  });
  const bool same_cell = first_of([&](const HopGrid::Pair& pair,
                                      std::int32_t hops) {
    return pair.from == pair.to && hops == 0;
  });
  const bool disconnected = first_of([&](const HopGrid::Pair& pair,
                                         std::int32_t hops) {
    return usable_pair(pair) && hops < 0;
  });
  bool all_classes = unusable && same_cell && disconnected;
  std::size_t shortest = checked.size();
  std::size_t longest = checked.size();
  for (std::size_t p = 0; p < checked.size(); ++p) {
    if (answers[p] <= 0) continue;
    if (shortest == checked.size() || answers[p] < answers[shortest]) {
      shortest = p;
    }
    if (longest == checked.size() || answers[p] > answers[longest]) {
      longest = p;
    }
  }
  if (longest != checked.size() && answers[shortest] < answers[longest]) {
    mixed.push_back(shortest);
    mixed.push_back(longest);
  } else {
    all_classes = false;
  }
  for (std::size_t p = mixed.size(); p > 1; --p) {
    std::swap(mixed[p - 1], mixed[rng.uniform_below(p)]);
  }

  // Every kernel: the mixed batch, then all pairs in batches of 1-9.
  std::vector<HopGrid::Pair> batch;
  std::vector<std::int32_t> out;
  for (const HopKernel& kernel : hop_kernels()) {
    const auto run_batch = [&](const std::vector<std::size_t>& picks) {
      batch.clear();
      for (const std::size_t p : picks) batch.push_back(checked[p]);
      out.assign(batch.size(), -7);
      grid.hops(words, batch, out, scratch, kernel);
      ++tally.batches;
      for (std::size_t b = 0; b < picks.size(); ++b) {
        ASSERT_EQ(out[b], answers[picks[b]])
            << kernel.isa << " batch of " << picks.size() << ", pair " << b
            << ": from " << batch[b].from << " to " << batch[b].to << " on "
            << array.cell_count() << " cells, stride " << grid.stride();
      }
    };
    run_batch(mixed);
    if (::testing::Test::HasFatalFailure()) return;
    if (all_classes) ++tally.mixed_batches;
    std::vector<std::size_t> picks;
    for (std::size_t p = 0; p < checked.size();) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(1, 9));
      picks.clear();
      for (; p < checked.size() && picks.size() < size; ++p) {
        picks.push_back(p);
      }
      run_batch(picks);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // The idle lanes of a partial kernel call, on routed or disconnected
  // pairs of distinct usable endpoints.
  std::vector<HopGrid::Pair> searched;
  std::vector<std::int32_t> searched_hops;
  for (std::size_t p = 0; p < checked.size(); ++p) {
    if (usable_pair(checked[p]) && checked[p].from != checked[p].to) {
      searched.push_back(checked[p]);
      searched_hops.push_back(answers[p]);
    }
  }
  check_idle_lanes(grid, words, searched, searched_hops);
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
  // Every outcome class actually occurred, also side by side in a batch.
  EXPECT_GT(tally.same_cell, 50);
  EXPECT_GT(tally.unusable_endpoint, 200);
  EXPECT_GT(tally.disconnected, 50);
  EXPECT_GT(tally.routed, 1000);
  EXPECT_GT(tally.batches, 1000);
  EXPECT_GT(tally.mixed_batches, 40);
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
      const HopGrid::Pair pair{from, to};
      std::int32_t counted = -1;
      grid.hops(grid.primary_words(), {&pair, 1}, {&counted, 1}, scratch);
      EXPECT_EQ(counted,
                hex::distance(region.coord_at(from), region.coord_at(to)))
          << "width " << width;
    }
  }
}

struct CertificateTally {
  int pairs = 0;
  int certified = 0;     ///< pairs with a stored all-primary geodesic
  int no_geodesic = 0;   ///< pairs the table refuses outright
  int settled = 0;       ///< certified_hops answered (path intact)
  int fault_refused = 0;  ///< certified, path hit, yet BFS = hex distance
  int same_cell = 0;     ///< settled pairs with from == to
};

/// A certified path's bitmap is one chain of distance + 1 primary cells
/// from `from` to `to`, each a lattice neighbour of the next.
void expect_geodesic_path(const biochip::HexArray& array,
                          const PrimaryGeodesics& table, std::size_t a,
                          std::size_t b, hex::CellIndex from,
                          hex::CellIndex to) {
  std::vector<hex::CellIndex> cells;
  const std::span<const std::uint64_t> path = table.path(a, b);
  for (std::size_t w = 0; w < path.size(); ++w) {
    for (std::uint64_t bits = path[w]; bits != 0; bits &= bits - 1) {
      cells.push_back(static_cast<hex::CellIndex>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  ASSERT_EQ(static_cast<std::int32_t>(cells.size()), table.distance(a, b) + 1);
  for (const hex::CellIndex cell : cells) {
    ASSERT_LT(cell, array.cell_count());
    EXPECT_EQ(array.role(cell), CellRole::kPrimary);
  }
  EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), from));
  EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), to));
  // Ordered by distance from `from`, each cell is one hop past the last.
  const hex::Region& region = array.region();
  const auto from_from = [&](hex::CellIndex cell) {
    return hex::distance(region.coord_at(from), region.coord_at(cell));
  };
  std::sort(cells.begin(), cells.end(),
            [&](hex::CellIndex x, hex::CellIndex y) {
              return from_from(x) < from_from(y);
            });
  for (std::size_t k = 0; k < cells.size(); ++k) {
    EXPECT_EQ(from_from(cells[k]), static_cast<std::int32_t>(k));
    if (k > 0) {
      EXPECT_EQ(hex::distance(region.coord_at(cells[k - 1]),
                              region.coord_at(cells[k])),
                1);
    }
  }
}

/// Checks every ordered pair of `anchors` on `array` with `fault_rate`
/// random faults and a random share of the spares activated.
void check_certificates(biochip::HexArray array,
                        const std::vector<hex::CellIndex>& anchors,
                        double fault_rate, Rng& rng, CertificateTally& tally) {
  const PrimaryGeodesics table(array, anchors);
  ASSERT_EQ(table.anchor_count(), anchors.size());
  ASSERT_EQ(table.word_count(),
            (static_cast<std::size_t>(array.cell_count()) + 63) / 64);
  std::vector<std::uint64_t> faulty(table.word_count(), 0);
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    if (rng.bernoulli(fault_rate)) {
      array.set_health(cell, CellHealth::kFaulty);
      faulty[static_cast<std::size_t>(cell) >> 6] |= std::uint64_t{1}
                                                     << (cell & 63);
    }
  }
  UsableCells usable(array);
  const double activate_rate = rng.uniform01();
  for (const hex::CellIndex spare : array.spares()) {
    if (rng.bernoulli(activate_rate)) usable.activate_spare(spare);
  }
  const HopGrid grid(array);
  std::vector<std::uint64_t> words(grid.word_count(), 0);
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    if (usable.usable(cell)) grid.set(words, cell);
  }
  const Router router(usable);
  HopGrid::Scratch scratch;
  const hex::Region& region = array.region();
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    for (std::size_t b = 0; b < anchors.size(); ++b) {
      const hex::CellIndex from = anchors[a];
      const hex::CellIndex to = anchors[b];
      const std::int32_t lattice =
          hex::distance(region.coord_at(from), region.coord_at(to));
      ASSERT_EQ(table.distance(a, b), lattice);
      ++tally.pairs;
      if (!table.certified(a, b)) {
        ++tally.no_geodesic;
        EXPECT_EQ(table.certified_hops(a, b, faulty), -1);
        continue;
      }
      ++tally.certified;
      expect_geodesic_path(array, table, a, b, from, to);
      if (::testing::Test::HasFailure()) return;
      const HopGrid::Pair pair{from, to};
      std::int32_t bfs = -1;
      grid.hops(words, {&pair, 1}, {&bfs, 1}, scratch);
      const std::int32_t hops = table.certified_hops(a, b, faulty);
      if (hops < 0) {
        if (bfs == lattice) ++tally.fault_refused;
        continue;
      }
      const std::vector<hex::CellIndex> route =
          router.shortest_route(from, to);
      ASSERT_EQ(hops, lattice) << "from " << from << " to " << to;
      ASSERT_EQ(static_cast<std::int32_t>(route.size()) - 1, lattice)
          << "from " << from << " to " << to << " on "
          << array.cell_count() << " cells";
      ASSERT_EQ(bfs, lattice) << "from " << from << " to " << to;
      ++tally.settled;
      if (from == to) ++tally.same_cell;
    }
  }
}

TEST(HopCountFuzz, CertifiedGeodesicsMatchTheRouterAndHopGrid) {
  Rng rng(0x40B8);
  CertificateTally tally;
  constexpr biochip::DtmbKind kDtmbKinds[] = {biochip::DtmbKind::kDtmb1_6,
                                              biochip::DtmbKind::kDtmb3_6,
                                              biochip::DtmbKind::kDtmb4_4};
  for (int trial = 0; trial < 240; ++trial) {
    biochip::HexArray array = [&] {
      if (trial % 8 >= 5) {
        return biochip::make_dtmb_array(kDtmbKinds[trial % 8 - 5],
                                        rng.uniform_int(3, 16),
                                        rng.uniform_int(3, 16));
      }
      const hex::Region region = random_region(trial % 5, rng);
      std::vector<CellRole> roles(static_cast<std::size_t>(region.size()));
      const double spare_rate = 0.3 * rng.uniform01();
      for (CellRole& role : roles) {
        role =
            rng.bernoulli(spare_rate) ? CellRole::kSpare : CellRole::kPrimary;
      }
      return biochip::HexArray(region, roles);
    }();
    // Random anchors, repeats allowed (from == to pairs), any role.
    std::vector<hex::CellIndex> anchors(
        static_cast<std::size_t>(rng.uniform_int(1, 10)));
    for (hex::CellIndex& anchor : anchors) {
      anchor = static_cast<hex::CellIndex>(
          rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
    }
    check_certificates(std::move(array), anchors, 0.1 * rng.uniform01(), rng,
                       tally);
    if (HasFailure()) return;
  }
  // Every outcome class actually occurred.
  EXPECT_GT(tally.certified, 2000);
  EXPECT_GT(tally.no_geodesic, 2500);
  EXPECT_GT(tally.settled, 1800);
  EXPECT_GT(tally.fault_refused, 100);
  EXPECT_GT(tally.same_cell, 500);
}

}  // namespace
}  // namespace dmfb::fluidics
