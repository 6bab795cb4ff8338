// Tests for the fault taxonomy, the draw samplers, and each defect model's
// record path: sim::inject on a HexArray, checked against the bitmap path
// (sim::inject into a FaultState) where both apply.
#include <cmath>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "fault/fault_model.hpp"
#include "fault/parametric.hpp"
#include "fault/samplers.hpp"
#include "sim/fault_model.hpp"

namespace dmfb::fault {
namespace {

using sim::FaultModel;
using sim::inject;

biochip::HexArray test_array() {
  return biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 10, 10);
}

// ------------------------------------------------------------- fault model

TEST(FaultModel, Names) {
  EXPECT_STREQ(to_string(CatastrophicDefect::kDielectricBreakdown),
               "dielectric-breakdown");
  EXPECT_STREQ(to_string(CatastrophicDefect::kElectrodeShort),
               "electrode-short");
  EXPECT_STREQ(to_string(CatastrophicDefect::kOpenConnection),
               "open-connection");
  EXPECT_STREQ(to_string(ParametricDefect::kInsulatorThickness),
               "insulator-thickness");
  EXPECT_STREQ(to_string(FaultClass::kCatastrophic), "catastrophic");
  EXPECT_STREQ(to_string(FaultClass::kParametric), "parametric");
}

TEST(FaultModel, RecordStreamFormat) {
  FaultRecord record;
  record.cell = 7;
  record.fault_class = FaultClass::kCatastrophic;
  record.catastrophic = CatastrophicDefect::kElectrodeShort;
  std::ostringstream out;
  out << record;
  EXPECT_NE(out.str().find("cell 7"), std::string::npos);
  EXPECT_NE(out.str().find("electrode-short"), std::string::npos);
}

TEST(FaultModel, MapCountsByClass) {
  FaultMap map;
  FaultRecord catastrophic;
  catastrophic.cell = 1;
  catastrophic.fault_class = FaultClass::kCatastrophic;
  FaultRecord parametric;
  parametric.cell = 2;
  parametric.fault_class = FaultClass::kParametric;
  map.records = {catastrophic, parametric, catastrophic};
  EXPECT_EQ(map.count_of(FaultClass::kCatastrophic), 2);
  EXPECT_EQ(map.count_of(FaultClass::kParametric), 1);
  EXPECT_EQ(map.cells(), (std::vector<hex::CellIndex>{1, 2, 1}));
}

TEST(FaultModel, DefectSamplerCoversAllKinds) {
  Rng rng(42);
  std::set<CatastrophicDefect> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(sample_catastrophic_defect(rng));
  EXPECT_EQ(seen.size(), 3u);
}

// --------------------------------------------------------------- bernoulli

TEST(BernoulliInjector, RejectsBadProbability) {
  auto array = test_array();
  Rng rng(1);
  for (const double p : {-0.1, 1.1}) {
    EXPECT_THROW(inject(FaultModel::bernoulli(p), array, rng),
                 ContractViolation)
        << p;
  }
  EXPECT_EQ(array.faulty_count(), 0);
}

TEST(BernoulliInjector, PerfectSurvivalInjectsNothing) {
  auto array = test_array();
  Rng rng(1);
  const FaultMap map = inject(FaultModel::bernoulli(1.0), array, rng);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(array.faulty_count(), 0);
}

TEST(BernoulliInjector, ZeroSurvivalKillsEverything) {
  auto array = test_array();
  Rng rng(1);
  const FaultMap map = inject(FaultModel::bernoulli(0.0), array, rng);
  EXPECT_EQ(static_cast<std::int32_t>(map.size()), array.cell_count());
  EXPECT_EQ(array.faulty_count(), array.cell_count());
}

TEST(BernoulliInjector, RateMatchesProbability) {
  auto array = test_array();
  Rng rng(7);
  RunningStats stats;
  for (int trial = 0; trial < 400; ++trial) {
    const FaultMap map = inject(FaultModel::bernoulli(0.9), array, rng);
    stats.add(static_cast<double>(map.size()) / array.cell_count());
    array.reset_health();
  }
  EXPECT_NEAR(stats.mean(), 0.1, 0.01);
}

TEST(BernoulliInjector, MarksExactlyTheReportedCells) {
  // The records, the array's health and the bitmap path on the same stream
  // name the same cells.
  auto array = test_array();
  sim::FaultState state(sim::ChipDesign::make(array));
  Rng rng(3);
  Rng bitmap_rng = rng;
  const FaultMap map = inject(FaultModel::bernoulli(0.8), array, rng);
  inject(FaultModel::bernoulli(0.8), state, bitmap_rng);
  const auto cells = map.cells();
  const std::set<hex::CellIndex> reported(cells.begin(), cells.end());
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    EXPECT_EQ(array.health(cell) == biochip::CellHealth::kFaulty,
              reported.contains(cell));
    EXPECT_EQ(state.is_faulty(cell), reported.contains(cell));
  }
}

TEST(BernoulliInjector, RequiresHealthyArray) {
  auto array = test_array();
  array.set_health(0, biochip::CellHealth::kFaulty);
  Rng rng(1);
  EXPECT_THROW(inject(FaultModel::bernoulli(0.5), array, rng),
               ContractViolation);
}

// ------------------------------------------------------------- fixed count

TEST(FixedCountInjector, ExactCount) {
  auto array = test_array();
  Rng rng(11);
  for (const std::int32_t m : {0, 1, 10, 35}) {
    const FaultMap map = inject(FaultModel::fixed_count(m), array, rng);
    EXPECT_EQ(static_cast<std::int32_t>(map.size()), m);
    EXPECT_EQ(array.faulty_count(), m);
    array.reset_health();
  }
}

TEST(FixedCountInjector, CellsAreDistinct) {
  auto array = test_array();
  Rng rng(13);
  const FaultMap map = inject(FaultModel::fixed_count(30), array, rng);
  const auto cells = map.cells();
  const std::set<hex::CellIndex> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
}

TEST(FixedCountInjector, UniformOverCells) {
  auto array = test_array();
  const FaultModel model = FaultModel::fixed_count(5);
  Rng rng(17);
  std::vector<int> hits(static_cast<std::size_t>(array.cell_count()), 0);
  const int trials = 20000;
  for (int trial = 0; trial < trials; ++trial) {
    for (const auto cell : inject(model, array, rng).cells()) {
      ++hits[static_cast<std::size_t>(cell)];
    }
    array.reset_health();
  }
  const double expected = 5.0 / array.cell_count();
  for (const int count : hits) {
    EXPECT_NEAR(static_cast<double>(count) / trials, expected,
                0.012);
  }
}

TEST(FixedCountInjector, CountBeyondCellsRejected) {
  auto array = test_array();
  Rng rng(1);
  EXPECT_THROW(
      inject(FaultModel::fixed_count(array.cell_count() + 1), array, rng),
      ContractViolation);
  EXPECT_THROW(inject(FaultModel::fixed_count(-1), array, rng),
               ContractViolation);
}

// ------------------------------------------------------------------ Poisson

TEST(Poisson, ZeroMeanIsZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sample_poisson(0.0, rng), 0);
}

TEST(Poisson, MeanAndVarianceMatch) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(static_cast<double>(sample_poisson(2.5, rng)));
  }
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  EXPECT_NEAR(stats.variance(), 2.5, 0.12);
}

TEST(Poisson, SmallMeanDrawSequenceIsFrozen) {
  // The sim equivalence contract replays these draws bit-for-bit: the
  // small-mean branch must keep consuming exactly Knuth's sequence. A
  // parallel hand evaluation of the original algorithm must agree sample
  // for sample on a shared stream.
  Rng rng(23);
  Rng reference_rng = rng;
  for (int i = 0; i < 2000; ++i) {
    const std::int32_t sample = sample_poisson(3.7, rng);
    const double limit = std::exp(-3.7);
    std::int32_t k = 0;
    double product = 1.0;
    do {
      ++k;
      product *= reference_rng.uniform01();
    } while (product > limit);
    ASSERT_EQ(sample, k - 1) << "i = " << i;
  }
}

TEST(Poisson, LargeMeanIsUnbiasedAndTerminates) {
  // Knuth's direct method underflows exp(-mean) past mean ~ 745 and only
  // stopped once the uniform product itself underflowed (~750 draws), so
  // every sample came back biased toward ~750. The chunked-exponent fold
  // must track mean and variance at mean = 1000.
  Rng rng(29);
  const double mean = 1000.0;
  RunningStats stats;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    const std::int32_t sample = sample_poisson(mean, rng);
    ASSERT_GE(sample, 0);
    stats.add(static_cast<double>(sample));
  }
  // Sample mean within 3 standard errors; sigma = sqrt(mean).
  const double standard_error = std::sqrt(mean / trials);
  EXPECT_NEAR(stats.mean(), mean, 3.0 * standard_error);
  EXPECT_NEAR(stats.variance(), mean, 0.1 * mean);
  // And a far larger mean must still terminate and land in range.
  const auto huge = sample_poisson(20000.0, rng);
  EXPECT_GT(huge, 19000);
  EXPECT_LT(huge, 21000);
}

TEST(Poisson, MomentsSaneAcrossTheMeanRegimes) {
  // One property sweep across the sampler's three regimes: small mean
  // (Knuth direct), mid mean, and the chunked-exponent fold territory just
  // above the exp(-mean) underflow threshold. Sample mean within 4
  // standard errors, variance within 10% — seeded, so deterministic.
  for (const double mean : {0.5, 50.0, 750.0}) {
    Rng rng(0x9015504 + static_cast<std::uint64_t>(mean * 16.0));
    RunningStats stats;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
      const std::int32_t sample = sample_poisson(mean, rng);
      ASSERT_GE(sample, 0) << "mean=" << mean;
      stats.add(static_cast<double>(sample));
    }
    const double standard_error = std::sqrt(mean / trials);
    EXPECT_NEAR(stats.mean(), mean, 4.0 * standard_error) << "mean=" << mean;
    EXPECT_NEAR(stats.variance(), mean, 0.1 * mean + 0.02)
        << "mean=" << mean;
  }
}

// --------------------------------------------------------------- clustered

TEST(ClusteredInjector, ValidatesArguments) {
  auto array = test_array();
  Rng rng(1);
  EXPECT_THROW(inject(FaultModel::clustered(-1.0, {1, 0.5, 0.1}), array, rng),
               ContractViolation);
  EXPECT_THROW(inject(FaultModel::clustered(1.0, {-1, 0.5, 0.1}), array, rng),
               ContractViolation);
  EXPECT_THROW(inject(FaultModel::clustered(1.0, {1, 0.5, 0.9}), array, rng),
               ContractViolation);
}

TEST(ClusteredInjector, NoSpotsNoFaults) {
  auto array = test_array();
  Rng rng(23);
  const FaultMap map = inject(FaultModel::clustered(0.0, {2, 0.9, 0.2}), array, rng);
  EXPECT_TRUE(map.empty());
}

TEST(ClusteredInjector, FaultsAreSpatiallyClustered) {
  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 30, 30);
  const FaultModel model = FaultModel::clustered(1.0, {2, 1.0, 0.8});
  Rng rng(29);
  // Mean pairwise distance of clustered faults must be well below that of
  // the same number of uniformly placed faults.
  RunningStats clustered;
  RunningStats uniform;
  for (int trial = 0; trial < 200; ++trial) {
    const FaultMap map = inject(model, array, rng);
    const auto cells = map.cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (std::size_t j = i + 1; j < cells.size(); ++j) {
        clustered.add(hex::distance(array.region().coord_at(cells[i]),
                                    array.region().coord_at(cells[j])));
      }
    }
    array.reset_health();
    // Uniform baseline with the same fault count.
    const auto baseline = rng.sample_without_replacement(
        array.cell_count(), static_cast<std::int32_t>(cells.size()));
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      for (std::size_t j = i + 1; j < baseline.size(); ++j) {
        uniform.add(hex::distance(array.region().coord_at(baseline[i]),
                                  array.region().coord_at(baseline[j])));
      }
    }
  }
  ASSERT_GT(clustered.count(), 100);
  EXPECT_LT(clustered.mean(), 0.6 * uniform.mean());
}

TEST(ClusteredInjector, ExpectedFailuresPerSpotFormula) {
  // All cells of a radius-2 disk fail with probability 1: 1 + 6 + 12 = 19.
  EXPECT_NEAR(sim::expected_failures_per_spot({2, 1.0, 1.0}), 19.0, 1e-12);
}

TEST(ClusteredInjector, MeanFailuresTracksFormulaInInterior) {
  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 40, 40);
  const sim::ClusterShape shape{1, 0.8, 0.4};
  Rng rng(31);
  RunningStats stats;
  for (int trial = 0; trial < 2000; ++trial) {
    stats.add(static_cast<double>(
        inject(FaultModel::clustered(3.0, shape), array, rng).size()));
    array.reset_health();
  }
  // Boundary clipping loses a little; allow 10% slack below the interior
  // expectation 3 * (0.8 + 6*0.4).
  const double interior_expectation =
      3.0 * sim::expected_failures_per_spot(shape);
  EXPECT_LT(stats.mean(), interior_expectation * 1.02);
  EXPECT_GT(stats.mean(), interior_expectation * 0.85);
}

// ---------------------------------------------------------- parametric

TEST(Parametric, StandardNormalMoments) {
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(sample_standard_normal(rng));
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.variance(), 1.0, 0.03);
}

TEST(Parametric, UpperTailKnownValues) {
  EXPECT_NEAR(normal_upper_tail(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_upper_tail(1.96), 0.025, 5e-4);
  EXPECT_NEAR(normal_upper_tail(-1.0), 0.8413, 5e-4);
}

TEST(Parametric, CellFaultProbabilityClosedForm) {
  const ProcessSpec spec = ProcessSpec::typical();
  const double p_fault = spec.cell_fault_probability();
  EXPECT_GT(p_fault, 0.0);
  EXPECT_LT(p_fault, 0.01);  // tolerances are > 3 sigma in typical()
}

TEST(Parametric, InjectionRateMatchesClosedForm) {
  // Widen the sigmas 1.8x (tolerances at 1.85-2.2 sigma) so the rate is
  // large enough to measure quickly.
  const FaultModel model = FaultModel::parametric(1.8);
  const double expected =
      ProcessSpec::typical().scaled(1.8).cell_fault_probability();
  ASSERT_GT(expected, 0.1);

  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 20, 20);
  Rng rng(41);
  std::int64_t faults = 0;
  std::int64_t cells = 0;
  for (int trial = 0; trial < 100; ++trial) {
    faults += static_cast<std::int64_t>(inject(model, array, rng).size());
    cells += array.cell_count();
    array.reset_health();
  }
  const double measured =
      static_cast<double>(faults) / static_cast<double>(cells);
  EXPECT_NEAR(measured, expected, 0.1 * expected + 0.005);
}

TEST(Parametric, RecordsCarryDeviationAndParameter) {
  // Sigmas widened 8x: every tolerance at <= 0.5 sigma.
  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 6, 6);
  Rng rng(43);
  const FaultMap map = inject(FaultModel::parametric(8.0), array, rng);
  ASSERT_FALSE(map.empty());
  for (const FaultRecord& record : map.records) {
    EXPECT_EQ(record.fault_class, FaultClass::kParametric);
    ASSERT_TRUE(record.parametric.has_value());
    EXPECT_NE(record.deviation, 0.0);
  }
}

TEST(Parametric, SampleCellReportsOutOfTolerance) {
  ProcessSpec spec = ProcessSpec::typical();
  for (auto& param : spec.parameters) param.tolerance = 1e-9;  // everything out
  Rng rng(47);
  for (const Deviation& deviation : sample_cell(spec, rng)) {
    EXPECT_TRUE(deviation.out_of_tolerance);
  }
}

TEST(Parametric, ScaledSpecMultipliesSigmasOnly) {
  const ProcessSpec base = ProcessSpec::typical();
  const ProcessSpec scaled = base.scaled(2.0);
  for (std::size_t i = 0; i < base.parameters.size(); ++i) {
    EXPECT_DOUBLE_EQ(scaled.parameters[i].sigma,
                     base.parameters[i].sigma * 2.0);
    EXPECT_DOUBLE_EQ(scaled.parameters[i].tolerance,
                     base.parameters[i].tolerance);
  }
  // Wider spread -> strictly higher per-cell fault probability.
  EXPECT_GT(scaled.cell_fault_probability(), base.cell_fault_probability());
  EXPECT_THROW(base.scaled(0.0), ContractViolation);
}

// ------------------------------------------------------------------ mixture

TEST(MixtureInjector, ValidatesAndRequiresHealthyArray) {
  auto array = test_array();
  Rng rng(1);
  EXPECT_THROW(inject(FaultModel::mixture({}), array, rng), ContractViolation);
  array.set_health(0, biochip::CellHealth::kFaulty);
  EXPECT_THROW(
      inject(FaultModel::mixture({FaultModel::bernoulli(0.5)}), array, rng),
      ContractViolation);
}

TEST(MixtureInjector, SingleComponentMatchesStandaloneInjector) {
  // mixture({X}) on a healthy chip replays X draw-for-draw, cell-for-cell.
  auto mixture_array = test_array();
  auto standalone_array = test_array();
  const FaultModel standalone = FaultModel::bernoulli(0.85);
  const FaultModel mixture = FaultModel::mixture({standalone});
  Rng rng(53);
  Rng mixture_rng = rng;
  for (int trial = 0; trial < 100; ++trial) {
    const FaultMap expected = inject(standalone, standalone_array, rng);
    const FaultMap actual = inject(mixture, mixture_array, mixture_rng);
    ASSERT_EQ(actual.cells(), expected.cells()) << "trial = " << trial;
    standalone_array.reset_health();
    mixture_array.reset_health();
  }
  // The two Rngs consumed identical draw counts: they stay in lockstep.
  EXPECT_EQ(rng(), mixture_rng());
}

TEST(MixtureInjector, ComposesCatastrophicAndParametricRecords) {
  // Sigmas widened 2.4x: tolerances at 1.4-1.7 sigma.
  auto array = test_array();
  Rng rng(59);
  const FaultMap map = inject(
      FaultModel::mixture(
          {FaultModel::bernoulli(0.9), FaultModel::parametric(2.4)}),
      array, rng);
  EXPECT_GT(map.count_of(FaultClass::kCatastrophic), 0);
  EXPECT_GT(map.count_of(FaultClass::kParametric), 0);
  // First faulter wins: no cell is attributed twice.
  const auto cells = map.cells();
  const std::set<hex::CellIndex> unique(cells.begin(), cells.end());
  EXPECT_EQ(unique.size(), cells.size());
  // And the array's health agrees with the records.
  EXPECT_EQ(array.faulty_count(), static_cast<std::int32_t>(map.size()));
}

}  // namespace
}  // namespace dmfb::fault
