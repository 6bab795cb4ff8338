// Tests for local reconfiguration (matching-based + greedy) and the
// shifted-replacement baseline (paper Fig. 2).
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "reconfig/local_reconfig.hpp"
#include "reconfig/shifted_replacement.hpp"

namespace dmfb::reconfig {
namespace {

using biochip::CellHealth;
using biochip::CellRole;
using biochip::CellUsage;
using biochip::DtmbKind;

biochip::HexArray array_2_6() {
  return biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
}

// ------------------------------------------------------- LocalReconfigurer

TEST(LocalReconfig, HealthyChipTriviallyRepairable) {
  const auto array = array_2_6();
  const LocalReconfigurer reconfigurer;
  const ReconfigPlan plan = reconfigurer.plan(array);
  EXPECT_TRUE(plan.success);
  EXPECT_TRUE(plan.replacements.empty());
  EXPECT_TRUE(reconfigurer.feasible(array));
}

TEST(LocalReconfig, SingleFaultUsesAdjacentSpare) {
  auto array = array_2_6();
  // Pick an interior primary with two spare neighbours.
  const hex::CellIndex faulty = array.region().index_of({3, 3});
  ASSERT_EQ(array.role(faulty), CellRole::kPrimary);
  array.set_health(faulty, CellHealth::kFaulty);

  const ReconfigPlan plan = LocalReconfigurer().plan(array);
  ASSERT_TRUE(plan.success);
  ASSERT_EQ(plan.replacements.size(), 1u);
  const Replacement replacement = plan.replacements.front();
  EXPECT_EQ(replacement.faulty, faulty);
  EXPECT_EQ(array.role(replacement.spare), CellRole::kSpare);
  const auto spares = array.spare_neighbors_of(faulty);
  EXPECT_NE(std::find(spares.begin(), spares.end(), replacement.spare),
            spares.end());
}

TEST(LocalReconfig, FaultySpareNotUsed) {
  auto array = array_2_6();
  const hex::CellIndex faulty = array.region().index_of({3, 3});
  array.set_health(faulty, CellHealth::kFaulty);
  // Kill one of its two spare neighbours; the other must be chosen.
  const auto spares = array.spare_neighbors_of(faulty);
  ASSERT_EQ(spares.size(), 2u);
  array.set_health(spares[0], CellHealth::kFaulty);

  const ReconfigPlan plan = LocalReconfigurer().plan(array);
  ASSERT_TRUE(plan.success);
  EXPECT_EQ(plan.replacement_for(faulty), spares[1]);
}

TEST(LocalReconfig, FailsWhenAllSparesDead) {
  auto array = array_2_6();
  const hex::CellIndex faulty = array.region().index_of({3, 3});
  array.set_health(faulty, CellHealth::kFaulty);
  for (const auto spare : array.spare_neighbors_of(faulty)) {
    array.set_health(spare, CellHealth::kFaulty);
  }
  const LocalReconfigurer reconfigurer;
  const ReconfigPlan plan = reconfigurer.plan(array);
  EXPECT_FALSE(plan.success);
  EXPECT_EQ(plan.unrepairable, std::vector<hex::CellIndex>{faulty});
  EXPECT_FALSE(reconfigurer.feasible(array));
}

TEST(LocalReconfig, SparesAssignedInjectively) {
  auto array = array_2_6();
  Rng rng(55);
  fault::FixedCountInjector(12).inject(array, rng);
  const ReconfigPlan plan = LocalReconfigurer().plan(array);
  std::set<hex::CellIndex> used_spares;
  for (const Replacement& replacement : plan.replacements) {
    EXPECT_TRUE(used_spares.insert(replacement.spare).second)
        << "spare assigned twice";
    EXPECT_EQ(array.role(replacement.spare), CellRole::kSpare);
    EXPECT_EQ(array.health(replacement.spare), CellHealth::kHealthy);
    EXPECT_EQ(array.role(replacement.faulty), CellRole::kPrimary);
    EXPECT_EQ(array.health(replacement.faulty), CellHealth::kFaulty);
  }
}

TEST(LocalReconfig, ReplacementsAreAdjacent) {
  auto array = array_2_6();
  Rng rng(56);
  fault::FixedCountInjector(10).inject(array, rng);
  const ReconfigPlan plan = LocalReconfigurer().plan(array);
  for (const Replacement& replacement : plan.replacements) {
    EXPECT_TRUE(hex::adjacent(array.region().coord_at(replacement.faulty),
                              array.region().coord_at(replacement.spare)))
        << "local reconfiguration must be one hop";
  }
}

TEST(LocalReconfig, TwoFaultsSharingOneSpareGetDistinctSpares) {
  auto array = array_2_6();
  // Two primaries adjacent to the same spare: (1,2) and (2,1) both touch
  // spare (2,2); each also touches another spare, so matching must resolve.
  const hex::CellIndex a = array.region().index_of({1, 2});
  const hex::CellIndex b = array.region().index_of({2, 1});
  ASSERT_EQ(array.role(a), CellRole::kPrimary);
  ASSERT_EQ(array.role(b), CellRole::kPrimary);
  array.set_health(a, CellHealth::kFaulty);
  array.set_health(b, CellHealth::kFaulty);
  const ReconfigPlan plan = LocalReconfigurer().plan(array);
  ASSERT_TRUE(plan.success);
  EXPECT_NE(plan.replacement_for(a), plan.replacement_for(b));
}

TEST(LocalReconfig, UsedPolicyIgnoresUnusedFaults) {
  auto array = array_2_6();
  const hex::CellIndex used = array.region().index_of({3, 3});
  const hex::CellIndex unused = array.region().index_of({5, 5});
  array.set_usage(used, CellUsage::kAssayUsed);
  array.set_health(used, CellHealth::kFaulty);
  array.set_health(unused, CellHealth::kFaulty);
  // Kill every spare near the unused fault: cover-all fails, cover-used ok.
  for (const auto spare : array.spare_neighbors_of(unused)) {
    array.set_health(spare, CellHealth::kFaulty);
  }
  EXPECT_FALSE(LocalReconfigurer(CoveragePolicy::kAllFaultyPrimaries)
                   .feasible(array));
  const LocalReconfigurer used_only(CoveragePolicy::kUsedFaultyPrimaries);
  EXPECT_TRUE(used_only.feasible(array));
  const ReconfigPlan plan = used_only.plan(array);
  ASSERT_TRUE(plan.success);
  ASSERT_EQ(plan.replacements.size(), 1u);
  EXPECT_EQ(plan.replacements.front().faulty, used);
}

TEST(LocalReconfig, ReplacementForRoundTrip) {
  auto array = array_2_6();
  Rng rng(57);
  fault::FixedCountInjector(8).inject(array, rng);
  const ReconfigPlan plan = LocalReconfigurer().plan(array);
  ASSERT_FALSE(plan.replacements.empty());
  for (const Replacement& replacement : plan.replacements) {
    EXPECT_EQ(plan.replacement_for(replacement.faulty), replacement.spare);
  }
  // Cells the plan does not replace map to nothing.
  for (const CellIndex cell : array.primaries()) {
    if (array.health(cell) != CellHealth::kFaulty) {
      EXPECT_EQ(plan.replacement_for(cell), hex::kInvalidCell);
    }
  }
  EXPECT_EQ(plan.replacement_for(hex::kInvalidCell), hex::kInvalidCell);
}

TEST(LocalReconfig, AllEnginesAgreeOnFeasibility) {
  auto array = array_2_6();
  Rng rng(58);
  for (int trial = 0; trial < 50; ++trial) {
    array.reset_health();
    fault::BernoulliInjector(0.93).inject(array, rng);
    const bool hk =
        LocalReconfigurer(CoveragePolicy::kAllFaultyPrimaries,
                          graph::MatchingEngine::kHopcroftKarp)
            .feasible(array);
    const bool kuhn = LocalReconfigurer(CoveragePolicy::kAllFaultyPrimaries,
                                        graph::MatchingEngine::kKuhn)
                          .feasible(array);
    const bool dinic = LocalReconfigurer(CoveragePolicy::kAllFaultyPrimaries,
                                         graph::MatchingEngine::kDinic)
                           .feasible(array);
    EXPECT_EQ(hk, kuhn);
    EXPECT_EQ(hk, dinic);
  }
}

// --------------------------------------------------------------- greedy

TEST(GreedyReconfig, NeverBeatsMatching) {
  auto array = array_2_6();
  Rng rng(59);
  int greedy_fail_matching_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    array.reset_health();
    fault::BernoulliInjector(0.90).inject(array, rng);
    const bool greedy = GreedyReconfigurer().feasible(array);
    const bool matching = LocalReconfigurer().feasible(array);
    if (greedy) {
      EXPECT_TRUE(matching) << "greedy repaired an unrepairable chip?";
    } else if (matching) {
      ++greedy_fail_matching_ok;
    }
  }
  // The gap must actually be exercised by this sweep.
  EXPECT_GT(greedy_fail_matching_ok, 0);
}

TEST(GreedyReconfig, ValidPlanWhenSuccessful) {
  auto array = array_2_6();
  Rng rng(60);
  fault::FixedCountInjector(6).inject(array, rng);
  const ReconfigPlan plan = GreedyReconfigurer().plan(array);
  if (plan.success) {
    std::set<hex::CellIndex> used;
    for (const Replacement& replacement : plan.replacements) {
      EXPECT_TRUE(used.insert(replacement.spare).second);
      EXPECT_TRUE(hex::adjacent(array.region().coord_at(replacement.faulty),
                                array.region().coord_at(replacement.spare)));
    }
  }
}

// ------------------------------------------------------ shifted replacement

TEST(SpareRowChip, Figure2LayoutSane) {
  const SpareRowChip chip = SpareRowChip::make_figure2_example();
  EXPECT_EQ(chip.array().width(), 8);
  EXPECT_EQ(chip.array().height(), 7);
  EXPECT_EQ(chip.spare_rows(), 1);
  EXPECT_EQ(chip.array().spare_count(), 8);
  EXPECT_EQ(chip.modules().size(), 3u);
  EXPECT_NE(chip.module_at({0, 4}), nullptr);
  EXPECT_EQ(chip.module_at({0, 4})->id, 1);
  EXPECT_EQ(chip.module_at({7, 0})->id, 3);
  EXPECT_EQ(chip.module_at({0, 0}), nullptr);  // free cell
}

TEST(SpareRowChip, ModulePlacementValidation) {
  SpareRowChip chip(6, 5, 1);
  chip.place_module({1, {0, 0}, 3, 2});
  // Overlap rejected.
  EXPECT_THROW(chip.place_module({2, {2, 1}, 2, 2}), ContractViolation);
  // Out of bounds rejected.
  EXPECT_THROW(chip.place_module({3, {5, 0}, 2, 1}), ContractViolation);
  // On the spare row rejected.
  EXPECT_THROW(chip.place_module({4, {0, 3}, 2, 2}), ContractViolation);
}

TEST(ShiftedReplacement, FaultInModule1OnlyAffectsModule1) {
  // The paper's Fig. 2(b): Module 1 sits next to the spare row; its fault
  // shifts only Module 1.
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  ShiftedReplacer replacer(chip);
  const ShiftedReplacementPlan plan = replacer.replace({1, 4});
  ASSERT_TRUE(plan.success);
  EXPECT_EQ(plan.modules_affected, std::vector<std::int32_t>{1});
  EXPECT_EQ(plan.collateral_modules(), 0);
  EXPECT_EQ(plan.cells_remapped(), 2);  // (1,5) and the spare (1,6)
}

TEST(ShiftedReplacement, FaultInModule3DragsModule2) {
  // The paper's Fig. 2(c): a fault in Module 3 forces the reconfiguration
  // of fault-free Module 2 on the way to the boundary spare row.
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  ShiftedReplacer replacer(chip);
  const ShiftedReplacementPlan plan = replacer.replace({5, 1});
  ASSERT_TRUE(plan.success);
  EXPECT_EQ(plan.modules_affected, (std::vector<std::int32_t>{3, 2}));
  EXPECT_EQ(plan.collateral_modules(), 1);
  EXPECT_EQ(plan.cells_remapped(), 5);  // rows 2..6 of column 5
}

TEST(ShiftedReplacement, InterstitialCostIsAlwaysSmaller) {
  // For any single fault inside a module, interstitial local
  // reconfiguration remaps exactly one cell and touches only the module
  // containing the fault.
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  for (const PlacedModule& module : chip.modules()) {
    for (std::int32_t dy = 0; dy < module.height; ++dy) {
      SpareRowChip fresh = SpareRowChip::make_figure2_example();
      ShiftedReplacer replacer(fresh);
      const auto plan =
          replacer.replace({module.origin.x, module.origin.y + dy});
      ASSERT_TRUE(plan.success);
      EXPECT_GE(plan.cells_remapped(), 1);
    }
  }
}

TEST(ShiftedReplacement, SecondFaultInSameColumnFails) {
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  ShiftedReplacer replacer(chip);
  EXPECT_TRUE(replacer.replace({5, 1}).success);
  // The column's only spare is consumed; another fault above cannot shift.
  const auto plan = replacer.replace({5, 0});
  EXPECT_FALSE(plan.success);
}

TEST(ShiftedReplacement, FaultsInDifferentColumnsBothSucceed) {
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  ShiftedReplacer replacer(chip);
  EXPECT_TRUE(replacer.replace({5, 1}).success);
  EXPECT_TRUE(replacer.replace({2, 4}).success);
  EXPECT_EQ(replacer.total_replacements(), 2);
}

TEST(ShiftedReplacement, ChainBlockedByFaultFails) {
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  chip.array().set_health(chip.array().index_of({5, 3}),
                          biochip::CellHealth::kFaulty);
  ShiftedReplacer replacer(chip);
  const auto plan = replacer.replace({5, 1});
  EXPECT_FALSE(plan.success);
}

TEST(ShiftedReplacement, FaultySpareConsumesRedundancy) {
  SpareRowChip chip = SpareRowChip::make_figure2_example();
  ShiftedReplacer replacer(chip);
  const auto plan = replacer.replace({5, 6});  // in the spare row
  EXPECT_TRUE(plan.success);
  EXPECT_EQ(plan.cells_remapped(), 0);
  // Now the column spare is dead: a module fault above fails.
  EXPECT_FALSE(replacer.replace({5, 1}).success);
}

TEST(ShiftedReplacement, PolicyNames) {
  EXPECT_STREQ(to_string(CoveragePolicy::kAllFaultyPrimaries),
               "cover-all-faulty-primaries");
  EXPECT_STREQ(to_string(CoveragePolicy::kUsedFaultyPrimaries),
               "cover-used-faulty-primaries");
}

}  // namespace
}  // namespace dmfb::reconfig

// Appended: shifted-replacement success criterion (column counting) —
// property-tested against the stateful replacer on random fault sets.
namespace dmfb::reconfig {
namespace {

TEST(ShiftedReplacement, SuccessIffEveryColumnHasAtMostOneFault) {
  Rng rng(0xC01);
  for (int trial = 0; trial < 120; ++trial) {
    SpareRowChip chip(6, 7, 1);
    chip.place_module({1, {0, 0}, 6, 6});
    auto& array = chip.array();
    // Random fault set over all cells (including the spare row).
    const int fault_count = rng.uniform_int(0, 5);
    const auto cells = rng.sample_without_replacement(
        array.cell_count(), fault_count);
    std::vector<int> column_faults(6, 0);
    for (const auto cell : cells) {
      ++column_faults[static_cast<std::size_t>(array.coord_at(cell).x)];
    }
    const bool expected_ok =
        std::all_of(column_faults.begin(), column_faults.end(),
                    [](int count) { return count <= 1; });

    // The paper's flow is test-first: the full fault map is known before
    // any replacement chain is computed. Pre-mark all faults so chain
    // computation is order-independent.
    for (const auto cell : cells) {
      array.set_health(cell, biochip::CellHealth::kFaulty);
    }
    ShiftedReplacer replacer(chip);
    bool all_ok = true;
    for (const auto cell : cells) {
      if (!replacer.replace(array.coord_at(cell)).success) all_ok = false;
    }
    EXPECT_EQ(all_ok, expected_ok) << "trial " << trial;
  }
}

// ------------------------------------------------- Hall-violator property

// Whenever the matching-based planner fails, plan.unrepairable extended by
// its alternating-path closure through the plan's matching must be a
// directly checkable Hall violator: |N(S)| < |S| with N(S) the replacement
// neighbourhood under the planner's pool. Verified on randomized fault maps
// across both coverage policies and both replacement pools.
TEST(LocalReconfig, FailedPlansCarryACheckableHallViolator) {
  Rng rng(0x4A11);
  std::int32_t failures_witnessed = 0;
  for (std::int32_t trial = 0; trial < 300; ++trial) {
    auto array = array_2_6();
    // Mark some primaries used so kUsedFaultyPrimaries has real structure.
    std::int32_t marked = 0;
    for (const auto primary : array.primaries()) {
      if (marked >= array.primary_count() / 3) break;
      array.set_usage(primary, CellUsage::kAssayUsed);
      ++marked;
    }
    // Heavy enough fault load that repair often fails.
    fault::FixedCountInjector(rng.uniform_int(10, 45)).inject(array, rng);
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        const LocalReconfigurer reconfigurer(
            policy, graph::MatchingEngine::kHopcroftKarp, pool);
        const ReconfigPlan plan = reconfigurer.plan(array);
        const std::vector<CellIndex> violator =
            hall_violator(array, plan, pool);
        if (plan.success) {
          EXPECT_TRUE(violator.empty()) << "trial=" << trial;
          continue;
        }
        ++failures_witnessed;
        ASSERT_FALSE(violator.empty()) << "trial=" << trial;
        // The uncovered cells are all in the witness set…
        for (const CellIndex cell : plan.unrepairable) {
          EXPECT_TRUE(std::binary_search(violator.begin(), violator.end(),
                                         cell))
              << "trial=" << trial;
        }
        // …every witness cell is a covered faulty primary…
        const std::vector<CellIndex> cover = cells_to_cover(array, policy);
        for (const CellIndex cell : violator) {
          EXPECT_TRUE(std::find(cover.begin(), cover.end(), cell) !=
                      cover.end())
              << "trial=" << trial;
        }
        // …and Hall's condition fails on it: |N(S)| < |S|.
        const std::vector<CellIndex> neighborhood =
            replacement_neighborhood(array, violator, pool);
        EXPECT_LT(neighborhood.size(), violator.size())
            << "trial=" << trial << " policy=" << static_cast<int>(policy)
            << " pool=" << static_cast<int>(pool);
        // Exact deficiency: the closure reaches only matched candidates, so
        // |S| - |N(S)| counts precisely the unmatched (unrepairable) cells
        // that seeded it.
        EXPECT_EQ(violator.size() - neighborhood.size(),
                  static_cast<std::size_t>(std::count_if(
                      violator.begin(), violator.end(),
                      [&](CellIndex cell) {
                        return std::find(plan.unrepairable.begin(),
                                         plan.unrepairable.end(),
                                         cell) != plan.unrepairable.end();
                      })))
            << "trial=" << trial;
      }
    }
  }
  // The fault loads are chosen so the property is exercised, not vacuous.
  EXPECT_GT(failures_witnessed, 50);
}

TEST(LocalReconfig, HallViolatorRejectsNonMaximumPlans) {
  // A failed greedy plan proves nothing: its matching need not be maximum,
  // so certificate extraction must refuse it rather than hand back a set
  // that fails the |N(S)| < |S| check. Hunt a seed where greedy fails but
  // the maximum matching differs from greedy's.
  Rng rng(0xBAD5EED);
  for (std::int32_t trial = 0; trial < 400; ++trial) {
    auto array = array_2_6();
    fault::FixedCountInjector(rng.uniform_int(15, 40)).inject(array, rng);
    const ReconfigPlan greedy = GreedyReconfigurer().plan(array);
    if (greedy.success) continue;
    const ReconfigPlan optimal = LocalReconfigurer().plan(array);
    if (greedy.replacements.size() == optimal.replacements.size()) continue;
    // Greedy matched fewer cells than the maximum: the closure from its
    // unmatched cells reaches an augmenting path, which the certificate
    // extractor reports as a contract violation.
    EXPECT_THROW(hall_violator(array, greedy,
                               ReplacementPool::kSparesOnly),
                 ContractViolation);
    return;
  }
  GTEST_SKIP() << "no greedy-vs-maximum gap found in the seeded stream";
}

// ----------------------------------------------------- plan draw contract

// Pins the exact spare-assignment plans LocalReconfigurer::plan returns, so
// a change of graph representation or engine internals cannot silently
// move a replacement. Inputs: four DTMB designs x both coverage policies x
// both replacement pools x 64 seeded Bernoulli fault sets, with survival
// probabilities spread so that some cover sets exceed
// kAutoPushRelabelLeftCount and kAuto really switches engines. Each
// engine's plans fold into an FNV-1a digest of replacements + unrepairable
// cells; Dinic is pinned on the verdict digest only (success, matching
// size, feasible()), which every engine must reproduce.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_fold(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xffU;
    digest *= kFnvPrime;
  }
}

constexpr int kPlanPinSeeds = 64;
constexpr double kPlanPinSurvival[] = {0.97, 0.92, 0.85, 0.65};

void fold_plan(std::uint64_t& digest, const ReconfigPlan& plan) {
  fnv_fold(digest, plan.replacements.size());
  for (const Replacement& replacement : plan.replacements) {
    fnv_fold(digest, static_cast<std::uint64_t>(replacement.faulty));
    fnv_fold(digest, static_cast<std::uint64_t>(replacement.spare));
  }
  fnv_fold(digest, plan.unrepairable.size());
  for (const CellIndex cell : plan.unrepairable) {
    fnv_fold(digest, static_cast<std::uint64_t>(cell));
  }
}

struct PlanDigests {
  std::uint64_t verdict = kFnvOffset;  ///< every engine, Dinic included
  std::uint64_t hopcroft_karp = kFnvOffset;
  std::uint64_t kuhn = kFnvOffset;
  std::uint64_t push_relabel = kFnvOffset;
  std::uint64_t automatic = kFnvOffset;
};

/// Every (policy, pool, seed) input of one design, folded.
struct PlanPinRun {
  PlanDigests digests;
  /// The verdict digest once per engine; all five must be equal.
  std::vector<std::uint64_t> verdicts;
  /// Inputs whose cover set is large enough for kAuto to pick push-relabel.
  std::int32_t large_covers = 0;
};

PlanPinRun plan_pin_run(DtmbKind kind) {
  constexpr graph::MatchingEngine kPinEngines[] = {
      graph::MatchingEngine::kHopcroftKarp, graph::MatchingEngine::kKuhn,
      graph::MatchingEngine::kPushRelabel, graph::MatchingEngine::kAuto,
      graph::MatchingEngine::kDinic};
  PlanPinRun run;
  std::uint64_t* plan_slots[] = {
      &run.digests.hopcroft_karp, &run.digests.kuhn, &run.digests.push_relabel,
      &run.digests.automatic, nullptr};
  run.verdicts.assign(std::size(kPinEngines), kFnvOffset);
  auto array = biochip::make_dtmb_array_with_primaries(kind, 200);
  std::int32_t marked = 0;
  for (const auto primary : array.primaries()) {
    if (marked >= array.primary_count() / 3) break;
    array.set_usage(primary, CellUsage::kAssayUsed);
    ++marked;
  }
  for (int k = 0; k < kPlanPinSeeds; ++k) {
    array.reset_health();
    Rng rng(static_cast<std::uint64_t>(k) * 977 + 5);
    fault::BernoulliInjector(
        kPlanPinSurvival[static_cast<std::size_t>(k) %
                         std::size(kPlanPinSurvival)])
        .inject(array, rng);
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        if (cells_to_cover(array, policy).size() >=
            static_cast<std::size_t>(graph::kAutoPushRelabelLeftCount)) {
          ++run.large_covers;
        }
        for (std::size_t e = 0; e < std::size(kPinEngines); ++e) {
          const LocalReconfigurer reconfigurer(policy, kPinEngines[e], pool);
          const ReconfigPlan plan = reconfigurer.plan(array);
          fnv_fold(run.verdicts[e], plan.success ? 1 : 0);
          fnv_fold(run.verdicts[e], plan.replacements.size());
          fnv_fold(run.verdicts[e], reconfigurer.feasible(array) ? 1 : 0);
          if (plan_slots[e] != nullptr) fold_plan(*plan_slots[e], plan);
        }
      }
    }
  }
  run.digests.verdict = run.verdicts.back();  // Dinic's
  return run;
}

struct PinnedPlanDigests {
  DtmbKind kind;
  PlanDigests digests;
};

// Recorded from the planner before it moved onto the CSR matcher; not a
// golden to regenerate — a mismatch means a plan changed.
constexpr PinnedPlanDigests kPinnedPlanDigests[] = {
    {DtmbKind::kDtmb1_6,
     {0xdc01cf182a6f7cdcULL, 0x648c7e4cde4042d2ULL, 0x67adbb6454af9b1dULL,
      0xceff9cc07ae3dff7ULL, 0x068446e67161def4ULL}},
    {DtmbKind::kDtmb2_6,
     {0xdd12ee5728e4c146ULL, 0xe6cf28cb8e70ec53ULL, 0xb5acc82ebba8f55fULL,
      0xdf7a379ce0270cc7ULL, 0x1c86441977acbd53ULL}},
    {DtmbKind::kDtmb3_6,
     {0x71f2be3c2bf2fc5cULL, 0xa805fb76dca7a0a9ULL, 0xa5b76e2c5748895fULL,
      0x922016866e685530ULL, 0x3e226945a6e43643ULL}},
    {DtmbKind::kDtmb4_4,
     {0x5c73411867c476ceULL, 0x32b8e7da7d1a62cdULL, 0xeb34e97d4ccd2cf1ULL,
      0x31649b407d099829ULL, 0xa27f43bff728bca9ULL}},
};

TEST(LocalReconfigDrawContract, PlansMatchThePinnedDigests) {
  const auto hex = [](std::uint64_t value) {
    std::ostringstream out;
    out << "0x" << std::hex << value;
    return out.str();
  };
  for (const PinnedPlanDigests& pinned : kPinnedPlanDigests) {
    const std::string name(biochip::dtmb_info(pinned.kind).name);
    const PlanPinRun run = plan_pin_run(pinned.kind);
    const PlanDigests& actual = run.digests;
    EXPECT_GT(run.large_covers, 0) << name << ": kAuto never switches";
    for (const std::uint64_t verdict : run.verdicts) {
      EXPECT_EQ(hex(verdict), hex(actual.verdict))
          << name << ": engines disagree on a verdict";
    }
    EXPECT_EQ(hex(actual.verdict), hex(pinned.digests.verdict))
        << name << " verdict (dinic)";
    EXPECT_EQ(hex(actual.hopcroft_karp), hex(pinned.digests.hopcroft_karp))
        << name << " hopcroft-karp plans";
    EXPECT_EQ(hex(actual.kuhn), hex(pinned.digests.kuhn))
        << name << " kuhn plans";
    EXPECT_EQ(hex(actual.push_relabel), hex(pinned.digests.push_relabel))
        << name << " push-relabel plans";
    EXPECT_EQ(hex(actual.automatic), hex(pinned.digests.automatic))
        << name << " auto plans";
  }
}

}  // namespace
}  // namespace dmfb::reconfig
