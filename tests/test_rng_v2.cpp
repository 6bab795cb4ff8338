// v2 (rng_version = v2) draw-contract suite.
//
// Three layers of pinning, mirroring how the v1 goldens are protected:
//  1. Primitive quality: the counter_mix hash behind CounterStream passes
//     chi-square uniformity and pairwise-independence checks, both along one
//     stream (serial draws) and across per-run streams (the axis v2's
//     thread-invariance rests on). All statistics are deterministic (fixed
//     keys), so the thresholds are exact regression pins, not flaky gates.
//  2. Sink agreement: fault::*Injector::inject_v2 (records, HexArray) and
//     sim::inject_v2 (word-packed FaultState) run the same cores with
//     different sinks, and must leave identical cursors and cell sets, for
//     every kind and for mixtures — the v2 counterpart of the v1 suite.
//  3. Statistical equivalence: v1 and v2 yield estimates agree within
//     combined 95% CI half-widths at matched run counts across
//     DTMB(1,6)/DTMB(2,6) x defect-density grid, and v2 estimates are
//     bit-identical at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fault/kinds.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"
#include "sim/fault_state.hpp"
#include "sim/session.hpp"

namespace dmfb {
namespace {

using biochip::DtmbKind;

// ---------------------------------------------------------------------------
// 1. Primitive quality

TEST(CounterMix, IsTheSplitmixTrajectoryOfItsKey) {
  // counter_mix(key, i) is defined as splitmix64's output function at offset
  // i + 1 of key's golden-ratio walk; pin that identity so the hash can
  // never silently drift from the engine the repo already trusts.
  const std::uint64_t key = 0x0123456789abcdefULL;
  std::uint64_t state = key;
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(counter_mix(key, i), splitmix64(state)) << "counter " << i;
  }
}

TEST(CounterStream, RandomAccessAgreesWithSerialDraws) {
  CounterStream serial(42);
  const CounterStream indexed(42);
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(indexed.at(i), serial.next());
  }
  EXPECT_EQ(serial.cursor(), 32u);
  EXPECT_EQ(indexed.cursor(), 0u) << "at() must not move the cursor";

  CounterStream skipper(42);
  skipper.skip(7);
  EXPECT_EQ(skipper.next(), indexed.at(7));
}

double chi_square_64(const std::array<std::int64_t, 64>& observed,
                     double total) {
  const double expected = total / 64.0;
  double chi2 = 0.0;
  for (const std::int64_t count : observed) {
    const double d = static_cast<double>(count) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

// 63 degrees of freedom: p = 0.001 critical value is 103.4. The statistics
// below are deterministic (fixed keys), so these are regression pins with
// headroom, not probabilistic gates.
constexpr double kChi2Limit63 = 103.4;

TEST(CounterStream, ChiSquareUniformityAlongOneStream) {
  CounterStream stream(0xD0E5A11ULL);
  std::array<std::int64_t, 64> bins{};
  constexpr int kDraws = 1 << 16;
  for (int i = 0; i < kDraws; ++i) {
    ++bins[static_cast<std::size_t>(stream.uniform01() * 64.0)];
  }
  EXPECT_LT(chi_square_64(bins, kDraws), kChi2Limit63);
}

TEST(CounterStream, ChiSquarePairwiseIndependenceAlongOneStream) {
  // Consecutive draws into an 8x8 grid: dependence between neighbouring
  // counters would skew the joint distribution even if the marginals pass.
  CounterStream stream(0xD0E5A11ULL);
  std::array<std::int64_t, 64> cells{};
  constexpr int kPairs = 1 << 15;
  for (int i = 0; i < kPairs; ++i) {
    const auto a = static_cast<std::size_t>(stream.uniform01() * 8.0);
    const auto b = static_cast<std::size_t>(stream.uniform01() * 8.0);
    ++cells[a * 8 + b];
  }
  EXPECT_LT(chi_square_64(cells, kPairs), kChi2Limit63);
}

TEST(CounterStream, ChiSquareIndependenceAcrossRunStreams) {
  // The same counter observed on adjacent runs' streams — exactly the axis
  // run partitioning across threads relies on being independent.
  std::array<std::int64_t, 64> cells{};
  constexpr int kRuns = 1 << 14;
  for (int run = 0; run < kRuns; ++run) {
    const CounterStream a = sim::run_stream_v2(sim::kDefaultSeed, run);
    const CounterStream b = sim::run_stream_v2(sim::kDefaultSeed, run + 1);
    const auto i = static_cast<std::size_t>(a.uniform01_at(0) * 8.0);
    const auto j = static_cast<std::size_t>(b.uniform01_at(0) * 8.0);
    ++cells[i * 8 + j];
  }
  EXPECT_LT(chi_square_64(cells, kRuns), kChi2Limit63);
}

TEST(RunStreamV2, KeyNeverEqualsTheV1SeedState) {
  // run_stream_v2 deliberately skips the splitmix64 output that seeds the
  // v1 xoshiro state; the two contracts must not share observable bits.
  for (std::int32_t run = 0; run < 256; ++run) {
    std::uint64_t s = sim::kDefaultSeed +
                      0x9e3779b97f4a7c15ULL *
                          (static_cast<std::uint64_t>(run) + 1);
    const std::uint64_t v1_seed = splitmix64(s);
    EXPECT_NE(sim::run_stream_v2(sim::kDefaultSeed, run).key(), v1_seed);
  }
}

// ---------------------------------------------------------------------------
// Skip-sampling and Floyd primitives

TEST(SkipSampling, DegenerateProbabilities) {
  CounterStream none(7);
  std::vector<std::int32_t> hits;
  skip_sample_bernoulli(none, 100, 0.0,
                        [&](std::int32_t cell) { hits.push_back(cell); });
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(none.cursor(), 0u) << "prob <= 0 must consume no draw";

  CounterStream all(7);
  skip_sample_bernoulli(all, 5, 1.0,
                        [&](std::int32_t cell) { hits.push_back(cell); });
  EXPECT_EQ(hits, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(SkipSampling, VisitsAscendingAndMatchesBernoulliRate) {
  constexpr std::int64_t kCells = 200;
  constexpr double kProb = 0.05;
  std::int64_t faults = 0;
  constexpr int kStreams = 4000;
  for (int s = 0; s < kStreams; ++s) {
    CounterStream stream(static_cast<std::uint64_t>(s));
    std::int32_t prev = -1;
    skip_sample_bernoulli(stream, kCells, kProb, [&](std::int32_t cell) {
      EXPECT_GT(cell, prev);
      EXPECT_LT(cell, kCells);
      prev = cell;
      ++faults;
    });
  }
  const double mean = static_cast<double>(faults) / kStreams;
  const double expected = kCells * kProb;  // 10 per stream
  // Deterministic fixed-key statistic; +-4 sigma of the binomial mean.
  const double sigma =
      std::sqrt(kCells * kProb * (1.0 - kProb) / kStreams);
  EXPECT_NEAR(mean, expected, 4.0 * sigma);
}

TEST(SkipSampling, TinyProbabilityNeverOverflows) {
  // With prob ~ 1e-300 the geometric skip is astronomically large; the
  // double-precision comparison must terminate before any int64 cast.
  CounterStream stream(3);
  std::int64_t hits = 0;
  skip_sample_bernoulli(stream, 1'000'000, 1e-300,
                        [&](std::int32_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(stream.cursor(), 1u) << "one overshoot draw, then done";
}

TEST(FixedCountV2, PicksAreDistinctAndCoverUniformly) {
  constexpr std::int32_t kCells = 64;
  constexpr std::int32_t kCount = 8;
  std::array<std::int64_t, 64> histogram{};
  constexpr int kStreams = 1 << 13;
  for (int s = 0; s < kStreams; ++s) {
    CounterStream stream(static_cast<std::uint64_t>(s) * std::uint64_t{0x9e37} +
                         1);
    std::set<std::int32_t> picks;
    fault::fixed_count_v2(stream, kCells, kCount, [&](std::int32_t cell) {
      ASSERT_GE(cell, 0);
      ASSERT_LT(cell, kCells);
      EXPECT_TRUE(picks.insert(cell).second) << "duplicate pick " << cell;
      ++histogram[static_cast<std::size_t>(cell)];
    });
    EXPECT_EQ(picks.size(), static_cast<std::size_t>(kCount));
  }
  // Every cell selected with probability count/cells: chi-square against
  // the flat expectation (63 dof, deterministic).
  EXPECT_LT(chi_square_64(histogram,
                          static_cast<double>(kStreams) * kCount),
            kChi2Limit63);
}

TEST(FixedCountV2, FullSelectionIsAPermutationOfAllCells) {
  CounterStream stream(11);
  std::set<std::int32_t> picks;
  fault::fixed_count_v2(stream, 16, 16,
                        [&](std::int32_t cell) { picks.insert(cell); });
  EXPECT_EQ(picks.size(), 16u);
}

TEST(PoissonV2, MatchesMeanInBothRegimes) {
  for (const double mean : {3.0, 900.0}) {
    double total = 0.0;
    constexpr int kStreams = 4000;
    for (int s = 0; s < kStreams; ++s) {
      CounterStream stream(static_cast<std::uint64_t>(s) + 17);
      total += fault::sample_poisson(mean, stream);
    }
    const double sigma = std::sqrt(mean / kStreams);
    EXPECT_NEAR(total / kStreams, mean, 4.0 * sigma) << "mean " << mean;
  }
}

// ---------------------------------------------------------------------------
// FaultState bulk path

TEST(FaultStateV2, AscendingBulkPathMatchesSetFaulty) {
  const auto design = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
  sim::FaultState probe(design);
  sim::FaultState bulk(design);
  const std::int32_t last = design->cell_count() - 1;
  ASSERT_GT(last, 66) << "array too small to cross a word boundary";
  const std::vector<std::int32_t> cells = {0, 3, 63, 64, 65, last};
  for (const std::int32_t cell : cells) {
    probe.set_faulty(cell);
    bulk.set_faulty_ascending(cell);
  }
  EXPECT_EQ(probe.faulty_count(), bulk.faulty_count());
  ASSERT_EQ(probe.fault_words().size(), bulk.fault_words().size());
  for (std::size_t w = 0; w < probe.fault_words().size(); ++w) {
    EXPECT_EQ(probe.fault_words()[w], bulk.fault_words()[w]) << "word " << w;
  }
}

// ---------------------------------------------------------------------------
// 2. Layer equivalence: fault:: records vs sim:: bitmap

struct LayerRun {
  std::vector<std::int32_t> cells;  ///< sorted faulty cells
  std::uint64_t cursor = 0;         ///< stream cursor after injection
};

template <typename LegacyInject>
LayerRun run_legacy_v2(const LegacyInject& do_inject, std::uint64_t key) {
  auto array = biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60);
  CounterStream stream(key);
  const fault::FaultMap map = do_inject(array, stream);
  LayerRun out;
  for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
    if (array.health(cell) == biochip::CellHealth::kFaulty) {
      out.cells.push_back(cell);
    }
  }
  EXPECT_EQ(map.records.size(), out.cells.size())
      << "one record per faulted cell (first faulter wins)";
  out.cursor = stream.cursor();
  return out;
}

LayerRun run_sim_v2(const sim::FaultModel& model, std::uint64_t key) {
  const auto design = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
  sim::FaultState state(design);
  CounterStream stream(key);
  sim::inject_v2(model, state, stream);
  LayerRun out;
  out.cells.assign(state.faulty_cells().begin(), state.faulty_cells().end());
  std::sort(out.cells.begin(), out.cells.end());
  out.cursor = stream.cursor();
  return out;
}

void expect_layers_agree(const LayerRun& legacy, const LayerRun& sim) {
  EXPECT_EQ(legacy.cells, sim.cells);
  EXPECT_EQ(legacy.cursor, sim.cursor)
      << "layers diverged in draw consumption — every later draw desyncs";
}

constexpr int kEquivalenceKeys = 64;

TEST(LayerEquivalenceV2, BernoulliBitIdentical) {
  const fault::BernoulliInjector injector(0.92);
  for (int k = 0; k < kEquivalenceKeys; ++k) {
    const auto key = static_cast<std::uint64_t>(k) * 977 + 5;
    expect_layers_agree(
        run_legacy_v2([&](biochip::HexArray& array,
                          CounterStream& stream) {
          return injector.inject_v2(array, stream);
        }, key),
        run_sim_v2(sim::FaultModel::bernoulli(0.92), key));
  }
}

TEST(LayerEquivalenceV2, FixedCountBitIdentical) {
  const fault::FixedCountInjector injector(7);
  for (int k = 0; k < kEquivalenceKeys; ++k) {
    const auto key = static_cast<std::uint64_t>(k) * 977 + 5;
    expect_layers_agree(
        run_legacy_v2([&](biochip::HexArray& array,
                          CounterStream& stream) {
          return injector.inject_v2(array, stream);
        }, key),
        run_sim_v2(sim::FaultModel::fixed_count(7), key));
  }
}

TEST(LayerEquivalenceV2, ClusteredBitIdentical) {
  const fault::ClusteredInjector injector(2.0, 1, 0.9, 0.3);
  for (int k = 0; k < kEquivalenceKeys; ++k) {
    const auto key = static_cast<std::uint64_t>(k) * 977 + 5;
    expect_layers_agree(
        run_legacy_v2([&](biochip::HexArray& array,
                          CounterStream& stream) {
          return injector.inject_v2(array, stream);
        }, key),
        run_sim_v2(sim::FaultModel::clustered(2.0, {1, 0.9, 0.3}), key));
  }
}

TEST(LayerEquivalenceV2, ParametricBitIdentical) {
  // sigma_scale 1.4 so faults actually occur at these run counts.
  const fault::ParametricInjector injector(
      fault::ProcessSpec::typical().scaled(1.4));
  for (int k = 0; k < kEquivalenceKeys; ++k) {
    const auto key = static_cast<std::uint64_t>(k) * 977 + 5;
    expect_layers_agree(
        run_legacy_v2([&](biochip::HexArray& array,
                          CounterStream& stream) {
          return injector.inject_v2(array, stream);
        }, key),
        run_sim_v2(sim::FaultModel::parametric(1.4), key));
  }
}

TEST(LayerEquivalenceV2, MixtureBitIdentical) {
  const fault::MixtureInjector injector(
      {fault::BernoulliInjector(0.95),
       fault::ParametricInjector(fault::ProcessSpec::typical().scaled(1.4)),
       fault::ClusteredInjector(1.0, 1, 0.9, 0.3)});
  const sim::FaultModel model = sim::FaultModel::mixture(
      {sim::FaultModel::bernoulli(0.95), sim::FaultModel::parametric(1.4),
       sim::FaultModel::clustered(1.0, {1, 0.9, 0.3})});
  for (int k = 0; k < kEquivalenceKeys; ++k) {
    const auto key = static_cast<std::uint64_t>(k) * 977 + 5;
    expect_layers_agree(
        run_legacy_v2([&](biochip::HexArray& array,
                          CounterStream& stream) {
          return injector.inject_v2(array, stream);
        }, key),
        run_sim_v2(model, key));
  }
}

// ---------------------------------------------------------------------------
// 3. Statistical equivalence and determinism of full estimates

TEST(StatisticalEquivalenceV2, V1AndV2AgreeWithinCombinedCi) {
  // Matched run counts, combined 95% half-widths: the acceptance gate for
  // swapping contracts on the paper's yield curves. Deterministic seeds.
  for (const DtmbKind kind : {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6}) {
    const auto design = sim::ChipDesign::make(
        biochip::make_dtmb_array_with_primaries(kind, 60));
    sim::Session session(design);
    for (const double p : {0.90, 0.95, 0.99}) {
      sim::YieldQuery query;
      query.fault = sim::FaultModel::bernoulli(p);
      query.runs = 4000;
      const sim::YieldEstimate v1 = session.run(query);
      query.rng_version = RngVersion::kV2;
      const sim::YieldEstimate v2 = session.run(query);
      const double hw1 = (v1.ci95.hi - v1.ci95.lo) / 2.0;
      const double hw2 = (v2.ci95.hi - v2.ci95.lo) / 2.0;
      EXPECT_LE(std::abs(v1.value - v2.value), hw1 + hw2)
          << "design " << static_cast<int>(kind) << " p " << p << ": v1 "
          << v1.value << " vs v2 " << v2.value;
    }
  }
}

TEST(StatisticalEquivalenceV2, MixtureAndClusteredAgreeWithinCombinedCi) {
  const auto design = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
  sim::Session session(design);
  const std::vector<sim::FaultModel> models = {
      sim::FaultModel::clustered(1.5, {1, 0.9, 0.3}),
      sim::FaultModel::fixed_count(5),
      sim::FaultModel::mixture({sim::FaultModel::bernoulli(0.97),
                                sim::FaultModel::clustered(1.0, {1, 0.9, 0.3})}),
  };
  for (const sim::FaultModel& model : models) {
    sim::YieldQuery query;
    query.fault = model;
    query.runs = 4000;
    const sim::YieldEstimate v1 = session.run(query);
    query.rng_version = RngVersion::kV2;
    const sim::YieldEstimate v2 = session.run(query);
    const double hw1 = (v1.ci95.hi - v1.ci95.lo) / 2.0;
    const double hw2 = (v2.ci95.hi - v2.ci95.lo) / 2.0;
    EXPECT_LE(std::abs(v1.value - v2.value), hw1 + hw2)
        << "kind " << static_cast<int>(model.kind);
  }
}

TEST(SessionV2, EstimatesBitIdenticalAcrossThreadCounts) {
  const auto design = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb1_6, 60));
  for (const auto& fault :
       {sim::FaultModel::bernoulli(0.99),
        sim::FaultModel::clustered(1.0, {1, 0.9, 0.3})}) {
    sim::YieldQuery query;
    query.fault = fault;
    query.runs = 2000;
    query.rng_version = RngVersion::kV2;
    std::vector<sim::YieldEstimate> estimates;
    for (const std::int32_t threads : {1, 2, 4}) {
      sim::Session session(design);  // fresh session: no cache crosstalk
      query.threads = threads;
      estimates.push_back(session.run(query));
    }
    for (std::size_t i = 1; i < estimates.size(); ++i) {
      EXPECT_EQ(estimates[0].successes, estimates[i].successes);
      EXPECT_EQ(estimates[0].value, estimates[i].value);
      EXPECT_EQ(estimates[0].ci95.lo, estimates[i].ci95.lo);
      EXPECT_EQ(estimates[0].ci95.hi, estimates[i].ci95.hi);
    }
  }
}

TEST(SessionV2, QueryKeySeparatesTheContracts) {
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.92);
  const std::string v1_key = sim::query_key(query);
  query.rng_version = RngVersion::kV2;
  const std::string v2_key = sim::query_key(query);
  EXPECT_NE(v1_key, v2_key)
      << "v1 and v2 estimates differ, so their cache keys must too";
}

}  // namespace
}  // namespace dmfb
