// Fuzz suite for the CSR matcher: on seeded random bipartite graphs
// (including empty and degenerate sides), Hopcroft-Karp must return a valid
// matching whose size equals the exhaustive maximum, and the Hall set
// hall_violator extracts from it must carry exactly the König deficiency.
// Neither oracle needs a second matching implementation. This is the
// algebra local reconfiguration stands on: every operational plan is this
// matching.
//
// The second half fuzzes sim::FaultState::repairable, Kuhn's augmenting
// paths in cell space. Randomized insert/remove fault sequences must give
// the same verdict as LocalReconfigurer on an equally faulted HexArray;
// steps are classified by a replay of first fit, so the suite proves the
// augmenting paths run. On the contested fault sets (those first fit cannot
// saturate) the verdict is also checked against CsrMatcher's Hopcroft-Karp
// on an independently built graph.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "graph/csr_matching.hpp"
#include "graph/matching.hpp"
#include "matching_oracle.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/chip_design.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::graph {
namespace {

/// One random instance: edges[a] lists a's right neighbours (sorted,
/// deduplicated by construction order).
struct Instance {
  std::int32_t left = 0;
  std::int32_t right = 0;
  std::vector<std::vector<std::int32_t>> edges;
};

Instance random_instance(Rng& rng) {
  Instance instance;
  instance.left = rng.uniform_int(0, 9);
  instance.right = rng.uniform_int(0, 9);
  instance.edges.resize(static_cast<std::size_t>(instance.left));
  if (instance.right == 0) return instance;
  // Edge density from empty to near-complete.
  const double density = rng.uniform01();
  for (auto& row : instance.edges) {
    for (std::int32_t b = 0; b < instance.right; ++b) {
      if (rng.bernoulli(density)) row.push_back(b);
    }
  }
  return instance;
}

void build_csr(const Instance& instance, CsrBipartiteGraph& graph) {
  graph.clear();
  for (std::int32_t a = 0; a < instance.left; ++a) {
    graph.open_row();
    for (const std::int32_t b :
         instance.edges[static_cast<std::size_t>(a)]) {
      graph.add_edge(b);
    }
  }
}

/// |S| - |N(S)| for a left set S, with N(S) read straight from the
/// instance's edge lists rather than from the graph under test.
std::int32_t deficiency(const Instance& instance,
                        const std::vector<std::int32_t>& left_set) {
  std::vector<char> in_neighborhood(static_cast<std::size_t>(instance.right),
                                    0);
  for (const std::int32_t a : left_set) {
    for (const std::int32_t b : instance.edges[static_cast<std::size_t>(a)]) {
      in_neighborhood[static_cast<std::size_t>(b)] = 1;
    }
  }
  std::int32_t neighborhood = 0;
  for (const char bit : in_neighborhood) neighborhood += bit;
  return static_cast<std::int32_t>(left_set.size()) - neighborhood;
}

TEST(MatchingFuzz, EnginesAndCsrAgreeOnRandomInstances) {
  // Two oracles per instance: (a) the matching is valid and as
  // large as the exhaustive maximum; (b) König's theorem — the Hall set S
  // extracted from it has |S| - |N(S)| == left - |M|, which certifies that
  // no larger matching exists independently of (a).
  Rng rng(0x5EED5EEDULL);
  CsrBipartiteGraph csr;     // reused across instances, as in the hot loop
  CsrMatcher matcher;
  for (std::int32_t trial = 0; trial < 3000; ++trial) {
    const Instance instance = random_instance(rng);
    build_csr(instance, csr);
    const std::int32_t maximum = brute_force_matching_size(csr);
    const std::int32_t size = matcher.maximum_matching_size(csr);
    const std::vector<std::int32_t> match(matcher.match_of_left().begin(),
                                          matcher.match_of_left().end());
    EXPECT_TRUE(is_valid_matching(csr, match)) << "trial=" << trial;
    EXPECT_EQ(size, maximum) << "trial=" << trial;
    EXPECT_EQ(deficiency(instance, hall_violator(csr, match)),
              instance.left - size)
        << "trial=" << trial;
    EXPECT_EQ(matcher.covers_all_left(csr), maximum == instance.left)
        << "trial=" << trial;
  }
}

TEST(MatchingFuzz, DegenerateSidesMatchEverywhere) {
  CsrBipartiteGraph csr;
  CsrMatcher matcher;
  // (left, right) with no edges: matching size is always 0, and
  // covers_all_left holds iff the left side is empty.
  constexpr std::pair<std::int32_t, std::int32_t> kShapes[] = {
      {0, 0}, {0, 5}, {5, 0}, {3, 3}};
  for (const auto& [left, right] : kShapes) {
    const Instance instance{
        left, right,
        std::vector<std::vector<std::int32_t>>(
            static_cast<std::size_t>(left))};
    build_csr(instance, csr);
    EXPECT_EQ(matcher.maximum_matching_size(csr), 0);
    EXPECT_EQ(matcher.covers_all_left(csr), left == 0);
  }
}

TEST(MatchingFuzz, HallViolatorWitnessesEveryDeficientInstance) {
  // Piggyback on the fuzz stream: whenever the matching misses a left
  // vertex, the extracted Hall violator must certify it.
  Rng rng(0xB1A5ULL);
  CsrBipartiteGraph csr;
  CsrMatcher matcher;
  for (std::int32_t trial = 0; trial < 500; ++trial) {
    const Instance instance = random_instance(rng);
    build_csr(instance, csr);
    const bool covered = matcher.covers_all_left(csr);
    const std::vector<std::int32_t> violator =
        hall_violator(csr, matcher.match_of_left());
    if (covered) {
      EXPECT_TRUE(violator.empty()) << "trial=" << trial;
      continue;
    }
    ASSERT_FALSE(violator.empty()) << "trial=" << trial;
    // |N(S)| < |S|, computed straight from the edge lists.
    EXPECT_GT(deficiency(instance, violator), 0) << "trial=" << trial;
  }
}

// ----------------------------------------------------------------------
// Batch-repair fuzz: evolving fault sets on a real DTMB design.

/// The certificate FaultState::repairable tries before any augmenting path,
/// replayed independently: covered faulty primaries in cell order, each
/// claiming its first healthy candidate (skeleton order) that no earlier
/// primary claimed. True iff every primary gets one.
bool first_fit_saturates(const sim::FaultState& state,
                         const sim::ChipDesign::Skeleton& skeleton) {
  std::vector<char> claimed(
      static_cast<std::size_t>(state.design().cell_count()), 0);
  for (const sim::CellIndex primary : skeleton.cover) {
    if (!state.is_faulty(primary)) continue;
    const auto row = static_cast<std::size_t>(
        skeleton.cover_row_of_cell[static_cast<std::size_t>(primary)]);
    bool found = false;
    for (const sim::CellIndex candidate : skeleton.candidates_of(row)) {
      auto& mark = claimed[static_cast<std::size_t>(candidate)];
      if (!state.is_faulty(candidate) && mark == 0) {
        mark = 1;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

TEST(BatchRepairFuzz, AgreesWithLocalReconfigurerOnRandomSequences) {
  // 9x9 DTMB(2,6): 81 cells, so the fault bitmap crosses a word boundary.
  // A quarter of the primaries are assay-used to give the used-faulty
  // policy and the spares-and-unused pool real work.
  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 9, 9);
  std::int32_t marked = 0;
  for (const auto primary : array.primaries()) {
    if (marked >= array.primary_count() / 4) break;
    array.set_usage(primary, biochip::CellUsage::kAssayUsed);
    ++marked;
  }
  const auto design = sim::ChipDesign::make(array);
  const auto n = static_cast<std::size_t>(design->cell_count());
  constexpr reconfig::CoveragePolicy kPolicies[] = {
      reconfig::CoveragePolicy::kAllFaultyPrimaries,
      reconfig::CoveragePolicy::kUsedFaultyPrimaries};
  constexpr reconfig::ReplacementPool kPools[] = {
      reconfig::ReplacementPool::kSparesOnly,
      reconfig::ReplacementPool::kSparesAndUnusedPrimaries};
  Rng rng(0x19C4E5ULL);
  // Steps by how repairable decides them: first fit alone, augmenting paths
  // after first fit got stuck on a repairable set, or an unrepairable set.
  // Each must occur, so the augmenting paths are exercised and not only
  // first fit.
  std::int32_t saturated = 0;
  std::int32_t stuck_repairable = 0;
  std::int32_t unrepairable = 0;
  for (const auto policy : kPolicies) {
    for (const auto pool : kPools) {
      const auto& skeleton = design->skeleton(policy, pool);
      const reconfig::LocalReconfigurer oracle(policy, pool);
      sim::FaultState state(design);
      std::vector<char> faulty(n, 0);
      for (std::int32_t step = 0; step < 400; ++step) {
        if (rng.bernoulli(0.15)) {
          // Heavy churn: resample the whole set.
          const double density = rng.uniform01() * 0.35;
          for (auto& bit : faulty) bit = rng.bernoulli(density) ? 1 : 0;
        } else {
          // Light churn: toggle a few cells.
          const std::int32_t flips = rng.uniform_int(1, 6);
          for (std::int32_t f = 0; f < flips; ++f) {
            const auto cell = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int32_t>(n) - 1));
            faulty[cell] ^= 1;
          }
        }
        array.reset_health();
        state.reset();
        for (std::size_t cell = 0; cell < n; ++cell) {
          if (!faulty[cell]) continue;
          array.set_health(static_cast<std::int32_t>(cell),
                           biochip::CellHealth::kFaulty);
          state.set_faulty(static_cast<std::int32_t>(cell));
        }
        const bool verdict = state.repairable(policy, pool);
        EXPECT_EQ(verdict, oracle.feasible(array)) << "step=" << step;
        if (first_fit_saturates(state, skeleton)) {
          EXPECT_TRUE(verdict) << "step=" << step;
          ++saturated;
        } else if (verdict) {
          ++stuck_repairable;
        } else {
          ++unrepairable;
        }
      }
    }
  }
  EXPECT_GE(saturated, 10);
  EXPECT_GE(stuck_repairable, 10);
  EXPECT_GE(unrepairable, 10);
}

TEST(BatchRepairFuzz, ContestedSetsAgreeWithCsrHopcroftKarp) {
  // Only the sets first fit cannot saturate (GreedyReconfigurer::feasible
  // false, spares-only pool), where FaultState::repairable must augment.
  // The reference graph is built here from the HexArray's spare adjacency,
  // not from the design skeleton, and matched by Hopcroft-Karp.
  constexpr reconfig::CoveragePolicy kPolicies[] = {
      reconfig::CoveragePolicy::kAllFaultyPrimaries,
      reconfig::CoveragePolicy::kUsedFaultyPrimaries};
  Rng rng(0xC0A7E57ULL);
  CsrBipartiteGraph csr;
  CsrMatcher matcher;
  std::int32_t repairable = 0;
  std::int32_t unrepairable = 0;
  for (const auto& [width, height] :
       {std::pair{9, 9}, std::pair{12, 10}, std::pair{16, 16}}) {
    auto array =
        biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, width, height);
    std::int32_t marked = 0;
    for (const auto primary : array.primaries()) {
      if (marked++ % 2 == 0) {
        array.set_usage(primary, biochip::CellUsage::kAssayUsed);
      }
    }
    const auto design = sim::ChipDesign::make(array);
    sim::FaultState state(design);
    std::vector<std::int32_t> right_of(
        static_cast<std::size_t>(array.cell_count()), -1);
    for (std::int32_t trial = 0; trial < 1500; ++trial) {
      const double density = 0.02 + rng.uniform01() * 0.12;
      array.reset_health();
      state.reset();
      for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
        if (rng.bernoulli(density)) {
          array.set_health(cell, biochip::CellHealth::kFaulty);
          state.set_faulty(cell);
        }
      }
      for (const auto policy : kPolicies) {
        if (reconfig::GreedyReconfigurer(policy).feasible(array)) continue;
        csr.clear();
        std::fill(right_of.begin(), right_of.end(), -1);
        for (const auto primary : reconfig::cells_to_cover(array, policy)) {
          csr.open_row();
          for (const auto spare : array.spare_neighbors_of(primary)) {
            if (array.health(spare) == biochip::CellHealth::kFaulty) continue;
            auto& right = right_of[static_cast<std::size_t>(spare)];
            if (right < 0) right = csr.right_count();
            csr.add_edge(right);
          }
        }
        const bool expected = matcher.covers_all_left(csr);
        EXPECT_EQ(state.repairable(policy,
                                   reconfig::ReplacementPool::kSparesOnly),
                  expected)
            << width << "x" << height << " trial=" << trial
            << " policy=" << static_cast<int>(policy);
        ++(expected ? repairable : unrepairable);
      }
    }
  }
  // Both verdicts must be common among the contested sets.
  EXPECT_GE(repairable, 200);
  EXPECT_GE(unrepairable, 200);
}

}  // namespace
}  // namespace dmfb::graph
