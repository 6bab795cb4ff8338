// Equivalence and contract tests for the sim layer: ChipDesign snapshots,
// FaultState repairability, and the Session query API.
//
// The load-bearing suite is the bit-identity pin: sim::Session must
// reproduce the legacy generic HexArray engine (yield::mc_yield with a
// fault::*Injector callback) success-for-success, for every
// (policy x engine x pool) combination, at threads 1 and 4. That is what
// lets mc_yield_bernoulli / mc_yield_fixed_faults / compound_yield /
// CampaignRunner ride on the session without moving a single golden number.
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "sim/session.hpp"
#include "yield/compound.hpp"
#include "yield/monte_carlo.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;
using graph::MatchingEngine;

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

/// Legacy reference: the generic HexArray engine with the real injectors.
yield::YieldEstimate legacy_reference(biochip::HexArray& array,
                                      const FaultModel& model,
                                      const yield::McOptions& options) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli: {
      const fault::BernoulliInjector injector(model.param);
      return yield::mc_yield(
          array,
          [&](biochip::HexArray& a, Rng& rng) { injector.inject(a, rng); },
          options);
    }
    case FaultModel::Kind::kFixedCount: {
      const fault::FixedCountInjector injector(
          static_cast<std::int32_t>(model.param));
      return yield::mc_yield(
          array,
          [&](biochip::HexArray& a, Rng& rng) { injector.inject(a, rng); },
          options);
    }
    case FaultModel::Kind::kClustered: {
      const fault::ClusteredInjector injector(
          model.param, model.cluster.radius, model.cluster.core_kill,
          model.cluster.edge_kill);
      return yield::mc_yield(
          array,
          [&](biochip::HexArray& a, Rng& rng) { injector.inject(a, rng); },
          options);
    }
    case FaultModel::Kind::kParametric:
    case FaultModel::Kind::kMixture:
      // Covered by the dedicated equivalence suite
      // (tests/test_sim_fault_models.cpp).
      break;
  }
  throw ContractViolation("unknown model kind");
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
      for (const MatchingEngine engine :
           {MatchingEngine::kHopcroftKarp, MatchingEngine::kKuhn,
            MatchingEngine::kDinic}) {
        for (const ReplacementPool pool :
             {ReplacementPool::kSparesOnly,
              ReplacementPool::kSparesAndUnusedPrimaries}) {
          for (const std::int32_t threads : {1, 4}) {
            yield::McOptions options;
            options.runs = 300;
            options.seed = 0xFACADE;
            options.threads = threads;
            options.policy = policy;
            options.engine = engine;
            options.pool = pool;
            const auto legacy = legacy_reference(array, model, options);
            Session& session =
                threads == 1 ? serial_session : parallel_session;
            const auto ported =
                session.run(yield::to_query(options, model));
            EXPECT_EQ(ported.successes, legacy.successes)
                << "model=" << static_cast<int>(model.kind)
                << " policy=" << static_cast<int>(policy)
                << " engine=" << static_cast<int>(engine)
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
}

TEST(SimEquivalence, ShimsMatchSessionOnMultiplexedChip) {
  // The Section-7 multiplexed chip exercises realistic usage marking.
  auto chip = assay::make_multiplexed_chip();
  yield::McOptions options;
  options.runs = 400;
  options.policy = CoveragePolicy::kUsedFaultyPrimaries;
  auto legacy_array = chip.array;
  const auto shim = yield::mc_yield_bernoulli(legacy_array, 0.95, options);

  Session session(chip.array);
  const auto direct = session.run(
      yield::to_query(options, FaultModel::bernoulli(0.95)));
  EXPECT_EQ(shim.successes, direct.successes);
}

TEST(SimEquivalence, CompoundYieldMatchesSessionComposition) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  yield::McOptions options;
  options.runs = 200;
  const auto pmf = yield::poisson_defect_pmf(array.cell_count(), 2.0);
  const auto via_array = yield::compound_yield(array, pmf, options, 1e-4);

  Session session(array);
  const auto via_session = yield::compound_yield(
      session, pmf, yield::to_query(options, FaultModel::fixed_count(0)),
      1e-4);
  EXPECT_DOUBLE_EQ(via_array.value, via_session.value);
  EXPECT_DOUBLE_EQ(via_array.truncated_mass, via_session.truncated_mass);
}

// ------------------------------------------------------------- determinism

TEST(SimSession, ThreadCountNeverChangesTheEstimate) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb3_6, 8, 8));
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
  const std::vector<YieldQuery> batch = {query, query, query};
  const auto results = session.run_all(batch);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].successes, results[1].successes);
  EXPECT_EQ(session.stats().queries, 3u);
  EXPECT_EQ(session.stats().computed, 1u);
  EXPECT_EQ(session.stats().cache_hits(), 2u);

  session.run(query);  // later single call: still cached
  EXPECT_EQ(session.stats().computed, 1u);
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
  other.engine = MatchingEngine::kKuhn;
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
  std::vector<yield::YieldEstimate> results(4);
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
  const fault::BernoulliInjector injector(0.9);
  for (std::int32_t trial = 0; trial < 200; ++trial) {
    Rng legacy_rng = rng;  // same stream for both injections
    injector.inject(array, rng);
    inject(FaultModel::bernoulli(0.9), state, legacy_rng);
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        const reconfig::LocalReconfigurer reconfigurer(
            policy, MatchingEngine::kHopcroftKarp, pool);
        EXPECT_EQ(state.repairable(policy, MatchingEngine::kHopcroftKarp,
                                   pool),
                  reconfigurer.feasible(array))
            << "trial=" << trial;
      }
    }
    array.reset_health();
    state.reset();
  }
}

TEST(FaultState, BernoulliFaultSetsAndFinalRngMatchLegacy) {
  // v1 layer equivalence at degenerate and exact-threshold survival
  // probabilities: the standalone injector, a one-component mixture and the
  // bitmap path fault the same cells (same classifications for the two
  // fault:: paths) and leave the Rng in the same state.
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  FaultState state(design);
  for (const double survival : {0.0, 0.25, 0.9, 1.0}) {
    const fault::BernoulliInjector standalone(survival);
    const fault::MixtureInjector mixture({fault::BernoulliInjector(survival)});
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      Rng legacy_rng(seed);
      Rng mixture_rng(seed);
      Rng sim_rng(seed);
      const fault::FaultMap legacy = standalone.inject(array, legacy_rng);
      inject(FaultModel::bernoulli(survival), state, sim_rng);
      ASSERT_EQ(state.faulty_count(),
                static_cast<std::int32_t>(legacy.records.size()));
      for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
        ASSERT_EQ(state.is_faulty(cell),
                  array.health(cell) == biochip::CellHealth::kFaulty)
            << "survival=" << survival << " seed=" << seed
            << " cell=" << cell;
      }
      array.reset_health();
      const fault::FaultMap mixed = mixture.inject(array, mixture_rng);
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
