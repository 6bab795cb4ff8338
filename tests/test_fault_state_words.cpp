// Property tests for the word-packed fault bitmap (sim::FaultState) and the
// skeleton coverage masks it is ANDed against.
//
// The bitmap is the foundation the word-parallel repairability scan stands
// on, so the suite checks it against the dumbest
// possible reference — a per-cell byte vector — across random insert
// sequences, and checks every verdict of the packed scan with its witness
// (tests/repair_witness.hpp) on arrays whose cell counts sit exactly on the
// 64-bit word boundary (63 / 64 / 65 cells) and on every fault set of
// 16-cell arrays.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "biochip/hex_array.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "hexgrid/region.hpp"
#include "reconfig/local_reconfig.hpp"
#include "repair_witness.hpp"
#include "sim/chip_design.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

constexpr CoveragePolicy kPolicies[] = {
    CoveragePolicy::kAllFaultyPrimaries,
    CoveragePolicy::kUsedFaultyPrimaries};
constexpr ReplacementPool kPools[] = {
    ReplacementPool::kSparesOnly,
    ReplacementPool::kSparesAndUnusedPrimaries};

/// width x height parallelograms whose cell counts straddle the word
/// boundary, plus a two-word array for good measure.
constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {
    {9, 7},   // 63 cells: one word, top bit unused
    {8, 8},   // 64 cells: one word, every bit live
    {13, 5},  // 65 cells: second word holds exactly one live bit
    {12, 11},
};

biochip::HexArray make_array(DtmbKind kind, std::int32_t width,
                             std::int32_t height) {
  return with_used_quarter(biochip::make_dtmb_array(kind, width, height));
}

TEST(FaultStateWords, WordCountFormulaOnBoundaries) {
  EXPECT_EQ(fault_word_count(0), 0u);
  EXPECT_EQ(fault_word_count(1), 1u);
  EXPECT_EQ(fault_word_count(63), 1u);
  EXPECT_EQ(fault_word_count(64), 1u);
  EXPECT_EQ(fault_word_count(65), 2u);
  EXPECT_EQ(fault_word_count(128), 2u);
  EXPECT_EQ(fault_word_count(129), 3u);
}

TEST(FaultStateWords, BitmapMatchesByteVectorReference) {
  Rng rng(0xB17B17ULL);
  for (const auto& [width, height] : kShapes) {
    const auto design =
        ChipDesign::make(make_array(DtmbKind::kDtmb2_6, width, height));
    const auto n = static_cast<std::size_t>(design->cell_count());
    FaultState state(design);
    ASSERT_EQ(state.fault_words().size(), fault_word_count(design->cell_count()));
    std::vector<char> reference(n, 0);
    for (std::int32_t round = 0; round < 50; ++round) {
      // Random insert sequence with deliberate duplicates.
      const std::int32_t inserts = rng.uniform_int(0, 40);
      for (std::int32_t i = 0; i < inserts; ++i) {
        const auto cell =
            rng.uniform_int(0, static_cast<std::int32_t>(n) - 1);
        state.set_faulty(cell);
        reference[static_cast<std::size_t>(cell)] = 1;
      }
      std::int32_t distinct = 0;
      for (std::size_t cell = 0; cell < n; ++cell) {
        distinct += reference[cell];
        EXPECT_EQ(state.is_faulty(static_cast<std::int32_t>(cell)),
                  reference[cell] != 0)
            << "round=" << round << " cell=" << cell;
      }
      EXPECT_EQ(state.faulty_count(), distinct);
      std::int32_t popcount = 0;
      for (const std::uint64_t word : state.fault_words()) {
        popcount += std::popcount(word);
      }
      EXPECT_EQ(popcount, distinct) << "round=" << round;
      // Trailing bits past cell_count must never be set.
      if (n % 64 != 0) {
        const std::uint64_t tail = state.fault_words().back();
        EXPECT_EQ(tail >> (n % 64), 0u) << "round=" << round;
      }
      state.reset();
      for (const std::uint64_t word : state.fault_words()) {
        EXPECT_EQ(word, 0u);
      }
      EXPECT_EQ(state.faulty_count(), 0);
      std::fill(reference.begin(), reference.end(), 0);
    }
  }
}

/// A one-row all-primary array of exactly `cells` cells.
std::shared_ptr<const ChipDesign> row_design(std::int32_t cells) {
  return ChipDesign::make(biochip::HexArray(
      hex::Region::parallelogram(cells, 1),
      [](hex::HexCoord) { return biochip::CellRole::kPrimary; }));
}

TEST(FaultStateWords, MixedWritersKeepCountCellsAndResetConsistent) {
  Rng rng(0xA5CE9DULL);
  for (const std::int32_t n : {1, 63, 64, 65, 129}) {
    const auto design = row_design(n);
    FaultState state(design);
    std::vector<char> reference(static_cast<std::size_t>(n), 0);
    for (std::int32_t round = 0; round < 200; ++round) {
      CellIndex last = -1;  // the highest marked cell
      for (std::int32_t op = rng.uniform_int(0, 12); op > 0; --op) {
        const int writer = rng.uniform_int(0, 2);
        if (writer == 0) {
          // Anywhere, duplicates included.
          const CellIndex cell = rng.uniform_int(0, n - 1);
          state.set_faulty(cell);
          reference[static_cast<std::size_t>(cell)] = 1;
          last = std::max(last, cell);
        } else if (last < n - 1 && writer == 1) {
          const CellIndex cell = rng.uniform_int(last + 1, n - 1);
          state.set_faulty_ascending(cell);
          reference[static_cast<std::size_t>(cell)] = 1;
          last = cell;
        } else if (last < n - 1) {
          // A random word at or after the first free cell's, its bits kept
          // above `last` and below n.
          const std::int32_t first_word = (last + 1) / 64;
          const std::int32_t word =
              rng.uniform_int(first_word, (n - 1) / 64);
          std::uint64_t bits = rng() & rng();
          for (std::int32_t b = 0; b < 64; ++b) {
            const CellIndex cell = word * 64 + b;
            if (cell <= last || cell >= n) {
              bits &= ~(std::uint64_t{1} << b);
            } else if ((bits >> b) & 1) {
              reference[static_cast<std::size_t>(cell)] = 1;
            }
          }
          state.set_faulty_word_ascending(static_cast<std::size_t>(word),
                                          bits);
          if (bits != 0) last = word * 64 + 63 - std::countl_zero(bits);
        }
      }
      std::vector<CellIndex> expected;
      for (CellIndex cell = 0; cell < n; ++cell) {
        if (reference[static_cast<std::size_t>(cell)] != 0) {
          expected.push_back(cell);
        }
        ASSERT_EQ(state.is_faulty(cell),
                  reference[static_cast<std::size_t>(cell)] != 0)
            << "n=" << n << " round=" << round << " cell=" << cell;
      }
      ASSERT_EQ(state.faulty_cells(), expected) << "n=" << n;
      ASSERT_EQ(state.faulty_count(),
                static_cast<std::int32_t>(expected.size()));
      if (n % 64 != 0) {
        EXPECT_EQ(state.fault_words().back() >> (n % 64), 0u);
      }
      state.reset();
      EXPECT_EQ(state.faulty_count(), 0);
      EXPECT_TRUE(state.faulty_cells().empty());
      for (const std::uint64_t word : state.fault_words()) {
        EXPECT_EQ(word, 0u);
      }
      std::fill(reference.begin(), reference.end(), 0);
      // reset() also forgets the highest marked cell.
      state.set_faulty_ascending(0);
      state.reset();
    }
  }
}

TEST(FaultStateWords, AscendingWritesRejectCellsOutOfRangeOrOutOfOrder) {
  FaultState state(row_design(129));  // words 0..2; word 2 holds cell 128
  EXPECT_THROW(state.set_faulty_word_ascending(3, 1), ContractViolation);
  EXPECT_THROW(state.set_faulty_word_ascending(2, 0b10), ContractViolation);
  EXPECT_THROW(state.set_faulty_word_ascending(2, std::uint64_t{1} << 63),
               ContractViolation);
  EXPECT_EQ(state.faulty_count(), 0);

  state.set_faulty(70);
  // At, and below, a marked cell.
  EXPECT_THROW(state.set_faulty_word_ascending(1, std::uint64_t{1} << 6),
               ContractViolation);
  EXPECT_THROW(state.set_faulty_word_ascending(1, std::uint64_t{1} << 5),
               ContractViolation);
  EXPECT_THROW(state.set_faulty_word_ascending(0, std::uint64_t{1} << 63),
               ContractViolation);
  // Mixed bits: one above the marked cell does not excuse one below it.
  EXPECT_THROW(state.set_faulty_word_ascending(
                   1, (std::uint64_t{1} << 5) | (std::uint64_t{1} << 9)),
               ContractViolation);
  EXPECT_THROW(state.set_faulty_ascending(70), ContractViolation);
  EXPECT_THROW(state.set_faulty_ascending(12), ContractViolation);
  EXPECT_EQ(state.faulty_cells(), std::vector<CellIndex>{70});

  // Above it, then the last live cell; a zero word writes nothing anywhere.
  state.set_faulty_word_ascending(1, std::uint64_t{1} << 7);
  state.set_faulty_word_ascending(0, 0);
  state.set_faulty_word_ascending(2, 1);
  EXPECT_EQ(state.faulty_cells(), (std::vector<CellIndex>{70, 71, 128}));
  EXPECT_EQ(state.faulty_count(), 3);
  EXPECT_THROW(state.set_faulty_ascending(128), ContractViolation);
}

TEST(FaultStateWords, SkeletonCoverMasksMirrorCoverLists) {
  for (const auto& [width, height] : kShapes) {
    for (const DtmbKind kind : {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6}) {
      const auto design = ChipDesign::make(make_array(kind, width, height));
      for (const auto policy : kPolicies) {
        for (const auto pool : kPools) {
          const auto& skeleton = design->skeleton(policy, pool);
          ASSERT_EQ(skeleton.cover_words.size(),
                    fault_word_count(design->cell_count()));
          ASSERT_EQ(skeleton.cover_row_of_cell.size(),
                    static_cast<std::size_t>(design->cell_count()));
          // Every covered cell: bit set and row index round-trips; every
          // other cell: bit clear and row -1.
          std::vector<char> covered(
              static_cast<std::size_t>(design->cell_count()), 0);
          for (std::size_t row = 0; row < skeleton.cover.size(); ++row) {
            const auto cell =
                static_cast<std::size_t>(skeleton.cover[row]);
            covered[cell] = 1;
            EXPECT_EQ(skeleton.cover_row_of_cell[cell],
                      static_cast<std::int32_t>(row));
          }
          for (std::size_t cell = 0; cell < covered.size(); ++cell) {
            const bool bit =
                ((skeleton.cover_words[cell >> 6] >> (cell & 63)) & 1) != 0;
            EXPECT_EQ(bit, covered[cell] != 0) << "cell=" << cell;
            if (!covered[cell]) {
              EXPECT_EQ(skeleton.cover_row_of_cell[cell], -1);
            }
          }
        }
      }
    }
  }
}

TEST(FaultStateWords, PackedVerdictIsCertifiedOnBoundarySizes) {
  // Every verdict of the packed word scan, every policy x pool, on
  // word-boundary cell counts, checked by its witness.
  Rng rng(0x60D0ULL);
  for (const auto& [width, height] : kShapes) {
    for (const DtmbKind kind : {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6}) {
      const auto design = ChipDesign::make(make_array(kind, width, height));
      const WitnessChecker checker(design->array());
      FaultState state(design);
      const std::int32_t n = design->cell_count();
      for (std::int32_t trial = 0; trial < 60; ++trial) {
        const double density = rng.uniform01() * 0.4;
        state.reset();
        for (std::int32_t cell = 0; cell < n; ++cell) {
          if (rng.bernoulli(density)) state.set_faulty(cell);
        }
        for (const auto policy : kPolicies) {
          for (const auto pool : kPools) {
            EXPECT_TRUE(checker.check(state, policy, pool,
                                      state.repairable(policy, pool)))
                << "trial=" << trial;
          }
        }
      }
    }
  }
}

// Hand-built fault sets on a 6x6 DTMB(2,6) array (36 cells, 27 primaries)
// for the branches of FaultState::repairable beyond plain first fit. Each
// set's shape is asserted under (all faulty primaries, spares only), where
// reconfig::GreedyReconfigurer replays the same first fit; every verdict is
// then checked by its witness under every policy x pool.
std::int32_t healthy_spares(const biochip::HexArray& array, CellIndex cell) {
  std::int32_t count = 0;
  for (const CellIndex spare : array.spare_neighbors_of(cell)) {
    count += array.health(spare) == biochip::CellHealth::kHealthy;
  }
  return count;
}

/// Loads `faults` into `array` and returns FaultState::repairable's verdict
/// under (all faulty, spares only), after checking every policy x pool
/// verdict by its witness. `witness`, when given, receives the (all faulty,
/// spares only) witness.
bool repair_verdict(biochip::HexArray& array,
                    std::initializer_list<CellIndex> faults,
                    RepairWitness* witness = nullptr) {
  array.reset_health();
  const auto design = ChipDesign::make(array);
  const WitnessChecker checker(design->array());
  FaultState state(design);
  for (const CellIndex cell : faults) {
    array.set_health(cell, biochip::CellHealth::kFaulty);
    state.set_faulty(cell);
  }
  for (const auto policy : kPolicies) {
    for (const auto pool : kPools) {
      EXPECT_TRUE(
          checker.check(state, policy, pool, state.repairable(policy, pool)))
          << "policy=" << static_cast<int>(policy)
          << " pool=" << static_cast<int>(pool);
    }
  }
  const bool verdict = state.repairable(CoveragePolicy::kAllFaultyPrimaries,
                                        ReplacementPool::kSparesOnly);
  if (witness != nullptr) *witness = state.witness();
  return verdict;
}

TEST(FaultStateRepair, StuckFirstFitIsRepairedByAugmentingPaths) {
  auto array = make_array(DtmbKind::kDtmb2_6, 6, 6);
  const reconfig::GreedyReconfigurer first_fit;
  // {3, 5}: 3 takes 5's only healthy spare, so the path is 5 -> spare ->
  // 3 -> 3's other spare (length 3). {13, 19, 30}: no owner of 30's
  // healthy spares has a free spare of its own, so the path needs one more
  // reassignment (length 5).
  for (const auto faults : {std::initializer_list<CellIndex>{3, 5},
                            std::initializer_list<CellIndex>{13, 19, 30}}) {
    array.reset_health();
    for (const CellIndex cell : faults) {
      array.set_health(cell, biochip::CellHealth::kFaulty);
    }
    const auto greedy = first_fit.plan(array);
    ASSERT_EQ(greedy.unrepairable.size(), 1u);
    const CellIndex stuck = greedy.unrepairable.front();
    ASSERT_GT(healthy_spares(array, stuck), 0);
    EXPECT_TRUE(repair_verdict(array, faults));
  }
  // The length-5 set: every healthy spare of the stuck primary 30 is held
  // by a primary whose other healthy spares are all held too.
  array.reset_health();
  for (const CellIndex cell : {13, 19, 30}) {
    array.set_health(cell, biochip::CellHealth::kFaulty);
  }
  const auto greedy = first_fit.plan(array);
  const auto holder = [&](CellIndex spare) {
    for (const auto& replacement : greedy.replacements) {
      if (replacement.spare == spare) return replacement.faulty;
    }
    return hex::kInvalidCell;
  };
  const auto healthy = [&](CellIndex cell) {
    return array.health(cell) == biochip::CellHealth::kHealthy;
  };
  for (const CellIndex spare : array.spare_neighbors_of(30)) {
    if (!healthy(spare)) continue;
    const CellIndex owner = holder(spare);
    ASSERT_NE(owner, hex::kInvalidCell);
    for (const CellIndex other : array.spare_neighbors_of(owner)) {
      if (other != spare && healthy(other)) {
        EXPECT_NE(holder(other), hex::kInvalidCell) << "owner=" << owner;
      }
    }
  }
}

TEST(FaultStateRepair, LaterIsolatedPrimaryFailsAfterRepairableStuckOne) {
  auto array = make_array(DtmbKind::kDtmb2_6, 6, 6);
  for (const CellIndex cell : {25, 32, 35}) {
    array.set_health(cell, biochip::CellHealth::kFaulty);
  }
  // First fit gets stuck first at 32, which has a healthy spare; 35, later
  // in cell order, has none.
  const auto greedy = reconfig::GreedyReconfigurer().plan(array);
  ASSERT_FALSE(greedy.unrepairable.empty());
  EXPECT_EQ(greedy.unrepairable.front(), 32);
  EXPECT_GT(healthy_spares(array, 32), 0);
  EXPECT_EQ(healthy_spares(array, 35), 0);
  EXPECT_FALSE(repair_verdict(array, {25, 32, 35}));
  // Without the isolated primary the stuck one is repaired by augmentation.
  EXPECT_TRUE(repair_verdict(array, {25, 32}));
}

TEST(FaultStateRepair, HallViolatorOfSizeTwoIsUnrepairable) {
  auto array = make_array(DtmbKind::kDtmb2_6, 6, 6);
  for (const CellIndex cell : {29, 34}) {
    array.set_health(cell, biochip::CellHealth::kFaulty);
  }
  // Neither primary is isolated, but together they see one healthy spare.
  EXPECT_GT(healthy_spares(array, 29), 0);
  EXPECT_GT(healthy_spares(array, 34), 0);
  RepairWitness witness;
  EXPECT_FALSE(repair_verdict(array, {29, 34}, &witness));
  EXPECT_EQ(witness.hall_set, (std::vector<CellIndex>{29, 34}));
  const auto is_faulty = [](CellIndex cell) {
    return cell == 29 || cell == 34;
  };
  EXPECT_EQ(WitnessChecker(array)
                .neighborhood(witness.hall_set, ReplacementPool::kSparesOnly,
                              is_faulty)
                .size(),
            1u);
}

// Every fault set of a 16-cell array, each verdict of the packed path
// (first fit, then augmenting paths) checked by its witness. All
// 2^16 sets run for the spares-only pool under both policies; the
// spares-and-unused pool takes every 7th set, which keeps the suite to a few
// seconds per array in Debug sanitizer builds. One test per array, so ctest
// runs them in parallel.
class ExhaustiveSixteenCells
    : public ::testing::TestWithParam<std::pair<DtmbKind, std::int32_t>> {};

TEST_P(ExhaustiveSixteenCells, EveryFaultSetCarriesACheckedWitness) {
  constexpr std::uint32_t kSets = 1u << 16;
  const auto [kind, primaries] = GetParam();
  const auto array = with_used_quarter(
      biochip::make_dtmb_array_with_primaries(kind, primaries));
  ASSERT_EQ(array.cell_count(), 16);
  const WitnessChecker checker(array);
  FaultState state(ChipDesign::make(array));
  std::int32_t mismatches = 0;
  for (const auto pool : kPools) {
    const std::uint32_t stride =
        pool == ReplacementPool::kSparesOnly ? 1 : 7;
    for (std::uint32_t mask = 0; mask < kSets; mask += stride) {
      state.reset();
      for (std::int32_t cell = 0; cell < 16; ++cell) {
        if (((mask >> cell) & 1) != 0) state.set_faulty(cell);
      }
      for (const auto policy : kPolicies) {
        const ::testing::AssertionResult checked = checker.check(
            state, policy, pool, state.repairable(policy, pool));
        if (!checked && ++mismatches <= 8) {
          ADD_FAILURE() << "mask=" << mask
                        << " policy=" << static_cast<int>(policy)
                        << " pool=" << static_cast<int>(pool) << ": "
                        << checked.message();
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(
    FaultStateWords, ExhaustiveSixteenCells,
    ::testing::Values(std::pair{DtmbKind::kDtmb1_6, 8},
                      std::pair{DtmbKind::kDtmb2_6, 6},
                      std::pair{DtmbKind::kDtmb3_6, 8},
                      std::pair{DtmbKind::kDtmb4_4, 6}),
    [](const auto& test_info) {
      switch (test_info.param.first) {
        case DtmbKind::kDtmb1_6: return "Dtmb1x6";
        case DtmbKind::kDtmb2_6: return "Dtmb2x6";
        case DtmbKind::kDtmb2_6B: return "Dtmb2x6B";
        case DtmbKind::kDtmb3_6: return "Dtmb3x6";
        case DtmbKind::kDtmb4_4: return "Dtmb4x4";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace dmfb::sim
