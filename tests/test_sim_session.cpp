// Equivalence and contract tests for the sim layer: ChipDesign snapshots,
// FaultState repairability, and the Session query API.
//
// The load-bearing suite is the bit-identity pin: sim::Session must
// reproduce the serial certified loop (tests/repair_witness.hpp: scalar
// sim::inject into one FaultState, every verdict's witness checked against
// the design's geometry) success-for-success, for every (policy x pool)
// combination, at threads 1 and 4. That is what lets CampaignRunner and
// the core facade ride on the session without moving a single golden
// number.
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "repair_witness.hpp"
#include "sim/assay_workload.hpp"
#include "sim/lockstep_bernoulli.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

biochip::HexArray make_test_array() {
  return with_used_quarter(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9));
}

// --------------------------------------------------------- equivalence pin

TEST(SimEquivalence, BitIdenticalToCertifiedSerialLoopForEveryCombination) {
  expect_sessions_match_certified_loop(
      ChipDesign::make(make_test_array()),
      {FaultModel::bernoulli(0.94), FaultModel::fixed_count(6),
       FaultModel::clustered(1.5, {1, 0.9, 0.3})});
}

TEST(SimEquivalence, MatchesReferenceOnMultiplexedChip) {
  // The Section-7 multiplexed chip exercises realistic usage marking.
  const auto design = ChipDesign::make(assay::make_multiplexed_chip().array);
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.95);
  query.runs = 400;
  query.policy = CoveragePolicy::kUsedFaultyPrimaries;
  Session session(design);
  const auto direct = session.run(query);
  EXPECT_EQ(certified_serial_loop(design, query).successes,
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

TEST(FaultState, RepairableVerdictsCarryCheckedWitnesses) {
  const auto design = ChipDesign::make(make_test_array());
  const WitnessChecker checker(design->array());
  FaultState state(design);
  Rng rng(123);
  const FaultModel model = FaultModel::bernoulli(0.9);
  std::int32_t verdicts[2] = {0, 0};
  for (std::int32_t trial = 0; trial < 200; ++trial) {
    inject(model, state, rng);
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        const bool verdict = state.repairable(policy, pool);
        EXPECT_TRUE(checker.check(state, policy, pool, verdict))
            << "trial=" << trial;
        ++verdicts[verdict ? 1 : 0];
      }
    }
    state.reset();
  }
  // Both witness kinds are exercised.
  EXPECT_GT(verdicts[0], 10);
  EXPECT_GT(verdicts[1], 50);
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

// ------------------------------------------------------------------ sweeps

/// An in-memory ResultCache: what a `--store` directory is to the session.
class MapCache final : public ResultCache {
 public:
  std::optional<std::string> load(const std::string& key) override {
    const std::scoped_lock lock(mutex_);
    const auto found = records_.find(key);
    if (found == records_.end()) return std::nullopt;
    return found->second;
  }
  void store(const std::string& key, const std::string& payload) override {
    const std::scoped_lock lock(mutex_);
    records_[key] = payload;
  }
  std::size_t size() {
    const std::scoped_lock lock(mutex_);
    return records_.size();
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> records_;
};

void expect_same_estimate(const YieldEstimate& got, const YieldEstimate& want,
                          const std::string& where) {
  EXPECT_EQ(got.successes, want.successes) << where;
  EXPECT_EQ(got.runs, want.runs) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ci95.lo),
            std::bit_cast<std::uint64_t>(want.ci95.lo))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ci95.hi),
            std::bit_cast<std::uint64_t>(want.ci95.hi))
      << where;
}

/// fig9's p list, `runs` runs each (333: no lane width divides it).
std::vector<YieldQuery> fig9_sweep(std::int32_t runs, std::int32_t threads) {
  std::vector<YieldQuery> queries;
  for (const double p :
       {0.80, 0.85, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98, 0.99}) {
    YieldQuery query;
    query.fault = FaultModel::bernoulli(p);
    query.runs = runs;
    query.seed = 0xD0E5A11;
    query.threads = threads;
    queries.push_back(query);
  }
  return queries;
}

TEST(SimSessionSweep, EqualsPerQueryRunBitForBit) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb3_6, 60));
  for (const std::int32_t threads : {1, 4}) {
    const std::vector<YieldQuery> queries = fig9_sweep(333, threads);
    for (const YieldQuery& query : queries) {
      EXPECT_EQ(sweep_key(query).empty(),
                lockstep_kernel_for(query.fault) == nullptr);
      EXPECT_EQ(sweep_key(query), sweep_key(queries.front()));
    }
    Session single(design);
    Session swept(design);
    const std::vector<YieldEstimate> answers = swept.run_sweep(queries);
    ASSERT_EQ(answers.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      expect_same_estimate(answers[i], single.run(queries[i]),
                           "threads=" + std::to_string(threads) +
                               " p=" + std::to_string(queries[i].fault.param));
      // Each member is memoized under its own key.
      expect_same_estimate(swept.run(queries[i]), answers[i], "memo");
    }
    EXPECT_EQ(swept.stats().computed, queries.size());
    EXPECT_EQ(swept.stats().cache_hits(), queries.size());
  }
}

TEST(SimSessionSweep, MixedMembersEqualPerQueryRun) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
  std::vector<YieldQuery> queries = fig9_sweep(200, 1);
  YieldQuery v2 = queries[1];
  v2.rng_version = RngVersion::kV2;
  YieldQuery adaptive = queries[2];
  adaptive.runs = 3000;
  adaptive.target_ci_half_width = 0.02;
  YieldQuery certain = queries[0];
  certain.fault = FaultModel::bernoulli(1.0);  // q = 0: no kernel
  YieldQuery fixed = queries[0];
  fixed.fault = FaultModel::fixed_count(4);
  YieldQuery other_pool = queries[3];
  other_pool.pool = reconfig::ReplacementPool::kSparesAndUnusedPrimaries;
  const YieldQuery repeated = queries[4];
  const YieldQuery in_memory = queries[5];
  const YieldQuery in_store = queries[6];
  for (const YieldQuery& query : {v2, adaptive, certain, fixed}) {
    EXPECT_TRUE(sweep_key(query).empty());
  }
  EXPECT_NE(sweep_key(other_pool), sweep_key(queries[0]));
  queries.insert(queries.begin() + 3, {v2, adaptive, certain, fixed});
  queries.push_back(other_pool);
  queries.push_back(repeated);

  // in_store's record comes from an earlier process; in_memory was asked
  // before the sweep.
  auto cache = std::make_shared<MapCache>();
  {
    Session writer(design);
    writer.attach_result_cache(cache);
    (void)writer.run(in_store);
  }
  ASSERT_EQ(cache->size(), 1u);
  Session swept(design);
  swept.attach_result_cache(cache);
  (void)swept.run(in_memory);
  const std::vector<YieldEstimate> answers = swept.run_sweep(queries);

  Session single(design);
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_estimate(answers[i], single.run(queries[i]),
                         "member " + std::to_string(i));
  }
  // 14 asked + the earlier in_memory query: one store hit, a cache hit
  // each for in_memory and the repeat, and every other distinct query
  // computed and written back.
  const Session::Stats stats = swept.stats();
  EXPECT_EQ(stats.queries, queries.size() + 1);
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.computed, queries.size() + 1 - 1 - 2);
  EXPECT_EQ(cache->size(), stats.computed + 1);
}

TEST(SimSessionSweep, AssayMembersEqualPerQueryRun) {
  Session swept(AssayWorkload::multiplexed());
  Session single(AssayWorkload::multiplexed());
  std::vector<YieldQuery> queries = fig9_sweep(40, 2);
  queries.resize(3);
  YieldQuery assay = queries[1];
  assay.workload = Workload::kAssay;
  assay.runs = 12;
  queries.insert(queries.begin() + 1, assay);
  const std::vector<YieldEstimate> answers = swept.run_sweep(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_estimate(answers[i], single.run(queries[i]),
                         "member " + std::to_string(i));
  }
  EXPECT_EQ(swept.stats().computed, queries.size());
}

/// load() throws until disarmed.
class ThrowingCache final : public ResultCache {
 public:
  std::optional<std::string> load(const std::string&) override {
    if (armed) throw std::runtime_error("store offline");
    return std::nullopt;
  }
  void store(const std::string&, const std::string&) override {}
  std::atomic<bool> armed{true};
};

TEST(SimSessionSweep, AFailedMemberThrowsAndLeavesNothingInFlight) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 40));
  const std::vector<YieldQuery> queries = fig9_sweep(100, 2);
  auto cache = std::make_shared<ThrowingCache>();
  Session session(design);
  session.attach_result_cache(cache);
  EXPECT_THROW((void)session.run_sweep(queries), std::runtime_error);
  // Every failed entry was dropped, so a retry recomputes instead of
  // waiting on a promise nobody fulfils.
  cache->armed = false;
  const std::vector<YieldEstimate> answers = session.run_sweep(queries);
  Session single(design);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect_same_estimate(answers[i], single.run(queries[i]), "retry");
  }
  EXPECT_EQ(session.stats().computed, queries.size());
}

TEST(SimSessionSweep, InvalidMemberThrowsBeforeAnyIsClaimed) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 40));
  std::vector<YieldQuery> queries = fig9_sweep(50, 1);
  queries.back().runs = 0;
  Session session(design);
  EXPECT_THROW((void)session.run_sweep(queries), ContractViolation);
  EXPECT_EQ(session.stats().queries, 0u);
}

}  // namespace
}  // namespace dmfb::sim
