// Property tests for the word-packed fault bitmap (sim::FaultState) and the
// skeleton coverage masks it is ANDed against.
//
// The bitmap is the foundation the word-parallel repairability scan and the
// incremental diff stand on, so the suite checks it against the dumbest
// possible reference — a per-cell byte vector — across random insert
// sequences, and pins the verdict equivalence between the packed scan and
// the legacy per-cell reconfig::LocalReconfigurer on arrays whose cell
// counts sit exactly on the 64-bit word boundary (63 / 64 / 65 cells).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "reconfig/local_reconfig.hpp"
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
constexpr graph::MatchingEngine kEngines[] = {
    graph::MatchingEngine::kHopcroftKarp, graph::MatchingEngine::kKuhn,
    graph::MatchingEngine::kDinic, graph::MatchingEngine::kPushRelabel,
    graph::MatchingEngine::kAuto};

/// width x height parallelograms whose cell counts straddle the word
/// boundary, plus a two-word array for good measure.
constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {
    {9, 7},   // 63 cells: one word, top bit unused
    {8, 8},   // 64 cells: one word, every bit live
    {13, 5},  // 65 cells: second word holds exactly one live bit
    {12, 11},
};

/// Marks a quarter of the primaries assay-used so the used-faulty policy
/// and the spares-and-unused pool are non-trivial.
biochip::HexArray with_used_quarter(biochip::HexArray array) {
  std::int32_t marked = 0;
  for (const auto primary : array.primaries()) {
    if (marked >= array.primary_count() / 4) break;
    array.set_usage(primary, biochip::CellUsage::kAssayUsed);
    ++marked;
  }
  return array;
}

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

TEST(FaultStateWords, PackedVerdictMatchesLegacyPerCellOnBoundarySizes) {
  // The packed word scan vs the legacy HexArray reconfigurer, same faults,
  // every policy x pool x engine, on word-boundary cell counts.
  Rng rng(0x60D0ULL);
  for (const auto& [width, height] : kShapes) {
    for (const DtmbKind kind : {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6}) {
      auto array = make_array(kind, width, height);
      const auto design = ChipDesign::make(array);
      FaultState state(design);
      const std::int32_t n = design->cell_count();
      for (std::int32_t trial = 0; trial < 60; ++trial) {
        const double density = rng.uniform01() * 0.4;
        array.reset_health();
        state.reset();
        for (std::int32_t cell = 0; cell < n; ++cell) {
          if (rng.bernoulli(density)) {
            array.set_health(cell, biochip::CellHealth::kFaulty);
            state.set_faulty(cell);
          }
        }
        for (const auto policy : kPolicies) {
          for (const auto pool : kPools) {
            for (const auto engine : kEngines) {
              const reconfig::LocalReconfigurer legacy(policy, engine, pool);
              EXPECT_EQ(state.repairable(policy, engine, pool),
                        legacy.feasible(array))
                  << "trial=" << trial << " engine="
                  << static_cast<int>(engine);
            }
          }
        }
      }
    }
  }
}

// Every fault set of a 16-cell array against the legacy HexArray
// reconfigurer, an independent implementation: the packed path (first-fit
// certificate, then the engine) must agree under each explicit engine. All
// 2^16 sets run for the spares-only pool under both policies; the
// spares-and-unused pool takes every 7th set, which keeps the suite to a few
// seconds per array in Debug sanitizer builds. One test per array, so ctest
// runs them in parallel.
class ExhaustiveSixteenCells
    : public ::testing::TestWithParam<std::pair<DtmbKind, std::int32_t>> {};

TEST_P(ExhaustiveSixteenCells, VerdictMatchesLegacyOnEveryFaultSet) {
  constexpr graph::MatchingEngine kExplicitEngines[] = {
      graph::MatchingEngine::kHopcroftKarp, graph::MatchingEngine::kKuhn,
      graph::MatchingEngine::kDinic, graph::MatchingEngine::kPushRelabel};
  constexpr std::uint32_t kSets = 1u << 16;
  const auto [kind, primaries] = GetParam();
  auto array = with_used_quarter(
      biochip::make_dtmb_array_with_primaries(kind, primaries));
  ASSERT_EQ(array.cell_count(), 16);
  FaultState state(ChipDesign::make(array));
  std::int32_t mismatches = 0;
  for (const auto pool : kPools) {
    const std::uint32_t stride =
        pool == ReplacementPool::kSparesOnly ? 1 : 7;
    for (std::uint32_t mask = 0; mask < kSets; mask += stride) {
      state.reset();
      for (std::int32_t cell = 0; cell < 16; ++cell) {
        const bool faulty = ((mask >> cell) & 1) != 0;
        array.set_health(cell, faulty ? biochip::CellHealth::kFaulty
                                      : biochip::CellHealth::kHealthy);
        if (faulty) state.set_faulty(cell);
      }
      for (const auto policy : kPolicies) {
        const bool expected =
            reconfig::LocalReconfigurer(
                policy, graph::MatchingEngine::kHopcroftKarp, pool)
                .feasible(array);
        for (const auto engine : kExplicitEngines) {
          if (state.repairable(policy, engine, pool) != expected &&
              ++mismatches <= 8) {
            ADD_FAILURE() << "mask=" << mask
                          << " policy=" << static_cast<int>(policy)
                          << " pool=" << static_cast<int>(pool)
                          << " engine=" << static_cast<int>(engine);
          }
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
