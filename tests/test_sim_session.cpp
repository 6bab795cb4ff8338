// Equivalence and contract tests for the sim layer: ChipDesign snapshots,
// FaultState repairability, and the Session query API.
//
// The load-bearing suite is the bit-identity pin: sim::Session must
// reproduce the serial HexArray reference loop (tests/hexarray_reference.hpp:
// sim::inject on a HexArray, LocalReconfigurer::feasible per run)
// success-for-success, for every (policy x pool) combination, at
// threads 1 and 4. That is what lets compound_yield, CampaignRunner and the
// core facade ride on the session without moving a single golden number.
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "hexarray_reference.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

biochip::HexArray make_test_array() {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
  // Mark a quarter of the primaries assay-used so the used-faulty coverage
  // policy and the spares-and-unused-primaries pool both have real work.
  std::int32_t marked = 0;
  for (const auto primary : array.primaries()) {
    if (marked >= array.primary_count() / 4) break;
    array.set_usage(primary, biochip::CellUsage::kAssayUsed);
    ++marked;
  }
  return array;
}

// --------------------------------------------------------- equivalence pin

TEST(SimEquivalence, BitIdenticalToLegacyForEveryEngineCombination) {
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  // One session per thread count: `threads` is not part of the query cache
  // key, so a shared session would serve the threads=4 leg from the serial
  // run's cache entry instead of exercising the parallel path.
  Session serial_session(design);
  Session parallel_session(design);
  for (const FaultModel& model :
       {FaultModel::bernoulli(0.94), FaultModel::fixed_count(6),
        FaultModel::clustered(1.5, {1, 0.9, 0.3})}) {
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        for (const std::int32_t threads : {1, 4}) {
          YieldQuery query;
          query.fault = model;
          query.runs = 300;
          query.seed = 0xFACADE;
          query.threads = threads;
          query.policy = policy;
          query.pool = pool;
          const auto legacy = hexarray_reference(array, query);
          Session& session =
              threads == 1 ? serial_session : parallel_session;
          const auto ported = session.run(query);
          EXPECT_EQ(ported.successes, legacy.successes)
              << "model=" << static_cast<int>(model.kind)
              << " policy=" << static_cast<int>(policy)
              << " pool=" << static_cast<int>(pool)
              << " threads=" << threads;
          EXPECT_DOUBLE_EQ(ported.value, legacy.value);
          EXPECT_DOUBLE_EQ(ported.ci95.lo, legacy.ci95.lo);
          EXPECT_DOUBLE_EQ(ported.ci95.hi, legacy.ci95.hi);
        }
      }
    }
  }
}

TEST(SimEquivalence, MatchesReferenceOnMultiplexedChip) {
  // The Section-7 multiplexed chip exercises realistic usage marking.
  auto chip = assay::make_multiplexed_chip();
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.95);
  query.runs = 400;
  query.policy = CoveragePolicy::kUsedFaultyPrimaries;
  Session session(chip.array);
  const auto direct = session.run(query);
  EXPECT_EQ(hexarray_reference(chip.array, query).successes,
            direct.successes);
}

// ------------------------------------------------------------- determinism

TEST(SimSession, ThreadCountNeverChangesTheEstimate) {
  const auto design =
      ChipDesign::make(biochip::make_dtmb_array(DtmbKind::kDtmb3_6, 8, 8));
  Session session(design);
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.93);
  query.runs = 1500;
  query.seed = 20260730;
  query.threads = 1;
  const auto serial = session.run(query);
  for (const std::int32_t threads : {0, 2, 3, 7}) {
    query.threads = threads;  // not part of the cache key
    const auto parallel = session.run(query);
    EXPECT_EQ(parallel.successes, serial.successes) << "threads=" << threads;
  }
  // All five calls hit the same cache entry: threads is not identity.
  EXPECT_EQ(session.stats().queries, 5u);
  EXPECT_EQ(session.stats().computed, 1u);

  // A fresh session per thread count really runs the parallel path, at
  // partitions that do not divide the run count evenly.
  for (const std::int32_t threads : {0, 2, 3, 4, 7}) {
    Session fresh(design);
    query.threads = threads;
    const auto parallel = fresh.run(query);
    EXPECT_EQ(fresh.stats().computed, 1u);
    EXPECT_EQ(parallel.successes, serial.successes) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(parallel.value, serial.value) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(parallel.ci95.lo, serial.ci95.lo);
    EXPECT_DOUBLE_EQ(parallel.ci95.hi, serial.ci95.hi);
  }

  // More threads than runs.
  YieldQuery tiny;
  tiny.fault = FaultModel::bernoulli(1.0);
  tiny.runs = 10;
  tiny.threads = 16;
  const auto estimate = Session(design).run(tiny);
  EXPECT_EQ(estimate.successes, 10);
  EXPECT_EQ(estimate.runs, 10);
}

TEST(SimSession, AdaptiveStoppingIsThreadInvariant) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10));
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.95);
  query.runs = 50000;
  query.target_ci_half_width = 0.02;
  query.threads = 1;
  const auto serial = session.run(query);
  // Stops at a chunk boundary, well under the cap, with the target met.
  EXPECT_LT(serial.runs, 50000);
  EXPECT_EQ(serial.runs % kAdaptiveChunkRuns, 0);
  EXPECT_LE(serial.ci95.width() / 2.0, 0.02);

  Session fresh(session.design_ptr());
  query.threads = 4;
  const auto parallel = fresh.run(query);
  EXPECT_EQ(parallel.runs, serial.runs);
  EXPECT_EQ(parallel.successes, serial.successes);
}

TEST(SimSession, AdaptiveStoppingRespectsTheRunCap) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.9);
  query.runs = 700;  // cap below one adaptive chunk
  query.target_ci_half_width = 1e-6;  // unreachable
  const auto estimate = session.run(query);
  EXPECT_EQ(estimate.runs, 700);
}

// ------------------------------------------------------------------- cache

TEST(SimSession, CachesIdenticalQueriesAcrossBatches) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.9);
  query.runs = 100;
  const YieldEstimate first = session.run(query);
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(session.run(query).successes, first.successes);
  }
  EXPECT_EQ(session.stats().queries, 3u);
  EXPECT_EQ(session.stats().computed, 1u);
  EXPECT_EQ(session.stats().cache_hits(), 2u);
}

TEST(SimSession, DistinctQueriesGetDistinctKeys) {
  YieldQuery base;
  base.fault = FaultModel::bernoulli(0.9);
  const std::string key = query_key(base);

  YieldQuery other = base;
  other.fault = FaultModel::bernoulli(0.91);
  EXPECT_NE(query_key(other), key);
  other = base;
  other.seed ^= 1;
  EXPECT_NE(query_key(other), key);
  other = base;
  other.target_ci_half_width = 0.01;
  EXPECT_NE(query_key(other), key);
  other = base;
  other.threads = 7;  // scheduling knob: same identity
  EXPECT_EQ(query_key(other), key);
}

TEST(SimSession, ConcurrentDuplicateQueriesComputeOnce) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.93);
  query.runs = 2000;
  std::vector<std::thread> callers;
  std::vector<YieldEstimate> results(4);
  for (std::size_t i = 0; i < results.size(); ++i) {
    callers.emplace_back(
        [&, i] { results[i] = session.run(query); });
  }
  for (auto& caller : callers) caller.join();
  for (const auto& result : results) {
    EXPECT_EQ(result.successes, results[0].successes);
  }
  EXPECT_EQ(session.stats().queries, 4u);
  EXPECT_EQ(session.stats().computed, 1u);
}

// ----------------------------------------------------------- design & state

TEST(ChipDesign, RejectsFaultyArrays) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6);
  array.set_health(0, biochip::CellHealth::kFaulty);
  EXPECT_THROW(ChipDesign::make(array), ContractViolation);
}

TEST(ChipDesign, SnapshotIsIndependentOfSourceMutations) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6);
  const auto design = ChipDesign::make(array);
  array.set_health(0, biochip::CellHealth::kFaulty);
  EXPECT_EQ(design->array().faulty_count(), 0);
}

TEST(FaultState, RepairableAgreesWithLocalReconfigurer) {
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  FaultState state(design);
  Rng rng(123);
  const FaultModel model = FaultModel::bernoulli(0.9);
  for (std::int32_t trial = 0; trial < 200; ++trial) {
    Rng legacy_rng = rng;  // same stream for both injections
    inject(model, array, rng);
    inject(model, state, legacy_rng);
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        const reconfig::LocalReconfigurer reconfigurer(policy, pool);
        EXPECT_EQ(state.repairable(policy, pool),
                  reconfigurer.feasible(array))
            << "trial=" << trial;
      }
    }
    array.reset_health();
    state.reset();
  }
}

TEST(FaultState, BernoulliFaultSetsAndFinalRngMatchLegacy) {
  // v1 sink equivalence at degenerate and exact-threshold survival
  // probabilities: the record path (standalone and as a one-component
  // mixture) and the bitmap path fault the same cells (same classifications
  // for the two record paths) and leave the Rng in the same state.
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  FaultState state(design);
  for (const double survival : {0.0, 0.25, 0.9, 1.0}) {
    const FaultModel standalone = FaultModel::bernoulli(survival);
    const FaultModel mixture = FaultModel::mixture({standalone});
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      Rng legacy_rng(seed);
      Rng mixture_rng(seed);
      Rng sim_rng(seed);
      const fault::FaultMap legacy = inject(standalone, array, legacy_rng);
      inject(standalone, state, sim_rng);
      ASSERT_EQ(state.faulty_count(),
                static_cast<std::int32_t>(legacy.records.size()));
      for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
        ASSERT_EQ(state.is_faulty(cell),
                  array.health(cell) == biochip::CellHealth::kFaulty)
            << "survival=" << survival << " seed=" << seed
            << " cell=" << cell;
      }
      array.reset_health();
      const fault::FaultMap mixed = inject(mixture, array, mixture_rng);
      ASSERT_EQ(mixed.records.size(), legacy.records.size());
      for (std::size_t i = 0; i < legacy.records.size(); ++i) {
        EXPECT_EQ(mixed.records[i].cell, legacy.records[i].cell);
        EXPECT_EQ(mixed.records[i].catastrophic,
                  legacy.records[i].catastrophic);
      }
      const std::uint64_t next = legacy_rng();
      EXPECT_EQ(sim_rng(), next) << "survival=" << survival;
      EXPECT_EQ(mixture_rng(), next) << "survival=" << survival;
      array.reset_health();
      state.reset();
    }
  }
}

TEST(FaultState, ResetClearsEverything) {
  const auto design =
      ChipDesign::make(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  FaultState state(design);
  state.set_faulty(3);
  state.set_faulty(3);  // idempotent
  state.set_faulty(7);
  EXPECT_EQ(state.faulty_count(), 2);
  EXPECT_TRUE(state.is_faulty(3));
  state.reset();
  EXPECT_EQ(state.faulty_count(), 0);
  EXPECT_FALSE(state.is_faulty(3));
  EXPECT_FALSE(state.is_faulty(7));
}

// -------------------------------------------------- YieldEstimate semantics

TEST(YieldEstimateCounts, ZeroRunsIsDefinedAndVacuous) {
  const auto estimate = YieldEstimate::from_counts(0, 0);
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
  EXPECT_DOUBLE_EQ(estimate.ci95.lo, 0.0);
  EXPECT_DOUBLE_EQ(estimate.ci95.hi, 1.0);
  EXPECT_EQ(estimate.runs, 0);
  EXPECT_EQ(estimate.successes, 0);
}

TEST(YieldEstimateCounts, ZeroSuccessesPinLowerBound) {
  const auto estimate = YieldEstimate::from_counts(0, 50);
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
  EXPECT_DOUBLE_EQ(estimate.ci95.lo, 0.0);
  EXPECT_GT(estimate.ci95.hi, 0.0);  // still uncertain upward
  EXPECT_LT(estimate.ci95.hi, 1.0);
}

TEST(YieldEstimateCounts, AllSuccessesPinUpperBound) {
  const auto estimate = YieldEstimate::from_counts(50, 50);
  EXPECT_DOUBLE_EQ(estimate.value, 1.0);
  EXPECT_DOUBLE_EQ(estimate.ci95.hi, 1.0);
  EXPECT_GT(estimate.ci95.lo, 0.0);
  EXPECT_LT(estimate.ci95.lo, 1.0);
}

TEST(YieldEstimateCounts, RejectsImpossibleCounts) {
  EXPECT_THROW(YieldEstimate::from_counts(-1, 10), ContractViolation);
  EXPECT_THROW(YieldEstimate::from_counts(11, 10), ContractViolation);
  EXPECT_THROW(YieldEstimate::from_counts(0, -1), ContractViolation);
}

// ------------------------------------------------------------- validation

TEST(SimSession, ValidatesQueries) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  YieldQuery query;
  query.runs = 0;
  EXPECT_THROW(session.run(query), ContractViolation);
  query.runs = 10;
  query.threads = -1;
  EXPECT_THROW(session.run(query), ContractViolation);
  query.threads = 1;
  query.fault = FaultModel::bernoulli(1.5);
  EXPECT_THROW(session.run(query), ContractViolation);
  query.fault = FaultModel::fixed_count(10'000);
  EXPECT_THROW(session.run(query), ContractViolation);
  query.fault = FaultModel::clustered(1.0, {1, 0.5, 0.9});  // edge > core
  EXPECT_THROW(session.run(query), ContractViolation);
}

}  // namespace
}  // namespace dmfb::sim
