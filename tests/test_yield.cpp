// Tests for the yield models: closed forms (paper Section 6 formulas, the
// 0.99^108 = 0.3378 headline), Monte-Carlo estimates from sim::Session, and
// agreement between the two on the cluster-exact DTMB(1,6) arrays.
#include <cmath>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "biochip/redundancy.hpp"
#include "common/contracts.hpp"
#include "repair_witness.hpp"
#include "sim/session.hpp"
#include "yield/analytic.hpp"

namespace dmfb::yield {
namespace {

using biochip::DtmbKind;
using sim::YieldEstimate;

// ---------------------------------------------------------------- analytic

TEST(Analytic, NoRedundancyExactValues) {
  EXPECT_DOUBLE_EQ(no_redundancy_yield(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(no_redundancy_yield(1, 0.37), 0.37);
  EXPECT_NEAR(no_redundancy_yield(10, 0.9), std::pow(0.9, 10), 1e-15);
}

TEST(Analytic, PaperHeadline108Cells) {
  // Section 7: the redundancy-free fabricated chip with 108 assay cells has
  // yield 0.3378 even at p = 0.99.
  EXPECT_NEAR(no_redundancy_yield(108, 0.99), 0.3378, 2e-4);
  EXPECT_NEAR(used_cells_yield(108, 0.99), 0.3378, 2e-4);
}

TEST(Analytic, ClusterYieldFormula) {
  // Yc = p^7 + 7 p^6 (1-p), exactly as printed in the paper.
  for (const double p : {0.5, 0.8, 0.9, 0.95, 0.99}) {
    EXPECT_NEAR(dtmb16_cluster_yield(p),
                std::pow(p, 7) + 7.0 * std::pow(p, 6) * (1.0 - p), 1e-15);
  }
}

TEST(Analytic, ClusterYieldBounds) {
  EXPECT_DOUBLE_EQ(dtmb16_cluster_yield(1.0), 1.0);
  EXPECT_DOUBLE_EQ(dtmb16_cluster_yield(0.0), 0.0);
  for (const double p : {0.1, 0.5, 0.9}) {
    const double yc = dtmb16_cluster_yield(p);
    EXPECT_GT(yc, 0.0);
    EXPECT_LT(yc, 1.0);
    // Redundancy helps: cluster yield beats 7 bare cells.
    EXPECT_GT(yc, std::pow(p, 7));
  }
}

TEST(Analytic, Dtmb16YieldComposesClusters) {
  const double p = 0.95;
  EXPECT_NEAR(dtmb16_yield(60, p), std::pow(dtmb16_cluster_yield(p), 10.0),
              1e-12);
  EXPECT_DOUBLE_EQ(dtmb16_yield(0, p), 1.0);
}

TEST(Analytic, Dtmb16BeatsNoRedundancy) {
  for (const double p : {0.90, 0.95, 0.99}) {
    for (const std::int32_t n : {60, 120, 300}) {
      EXPECT_GT(dtmb16_yield(n, p), no_redundancy_yield(n, p));
    }
  }
}

TEST(Analytic, YieldMonotoneInP) {
  double previous = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double y = dtmb16_yield(120, p);
    EXPECT_GE(y, previous - 1e-12);
    previous = y;
  }
}

TEST(Analytic, YieldDecreasesWithArraySize) {
  for (const double p : {0.9, 0.95}) {
    EXPECT_GT(dtmb16_yield(60, p), dtmb16_yield(120, p));
    EXPECT_GT(no_redundancy_yield(60, p), no_redundancy_yield(120, p));
  }
}

TEST(Analytic, EffectiveYieldDefinition) {
  // EY = Y / (1 + RR) = Y * n / N.
  EXPECT_NEAR(effective_yield(0.9, 1.0 / 3.0), 0.9 * 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(effective_yield(0.8, 0.0), 0.8);
  EXPECT_NEAR(effective_yield(1.0, 1.0), 0.5, 1e-12);
}

TEST(Analytic, InputValidation) {
  EXPECT_THROW(no_redundancy_yield(-1, 0.5), ContractViolation);
  EXPECT_THROW(no_redundancy_yield(5, 1.5), ContractViolation);
  EXPECT_THROW(dtmb16_cluster_yield(-0.1), ContractViolation);
  EXPECT_THROW(effective_yield(2.0, 0.1), ContractViolation);
  EXPECT_THROW(effective_yield(0.5, -0.1), ContractViolation);
}

// ------------------------------------------------------------- Monte-Carlo
//
// Statistical checks of the Monte-Carlo engine (sim::Session) against the
// closed forms and the paper's qualitative claims.

sim::YieldQuery bernoulli_query(double p, std::int32_t runs) {
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(p);
  query.runs = runs;
  return query;
}

sim::YieldQuery fixed_count_query(std::int32_t m, std::int32_t runs) {
  sim::YieldQuery query;
  query.fault = sim::FaultModel::fixed_count(m);
  query.runs = runs;
  return query;
}

TEST(MonteCarlo, PerfectSurvivalYieldsOne) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  const YieldEstimate estimate = session.run(bernoulli_query(1.0, 200));
  EXPECT_DOUBLE_EQ(estimate.value, 1.0);
  EXPECT_EQ(estimate.successes, estimate.runs);
}

TEST(MonteCarlo, ZeroSurvivalYieldsZero) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  const YieldEstimate estimate = session.run(bernoulli_query(0.0, 50));
  EXPECT_DOUBLE_EQ(estimate.value, 0.0);
}

TEST(MonteCarlo, DeterministicForSameSeed) {
  // Two independent sessions: the second answer is simulated, not cached.
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8);
  sim::YieldQuery query = bernoulli_query(0.95, 500);
  query.seed = 777;
  const double first = sim::Session(array).run(query).value;
  const double second = sim::Session(array).run(query).value;
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(MonteCarlo, ThreadsProduceBitIdenticalResults) {
  // The acceptance bar for the parallel engine: a fresh session at any
  // thread count (including 0 = auto, and partitions that do not divide
  // the run count) reproduces the serial certified loop exactly.
  const auto design = sim::ChipDesign::make(
      biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10));
  sim::YieldQuery query = bernoulli_query(0.93, 2000);
  query.seed = 20260730;
  const YieldEstimate serial = sim::certified_serial_loop(design, query);
  for (const std::int32_t threads : {0, 1, 2, 3, 4, 7}) {
    query.threads = threads;
    const YieldEstimate parallel = sim::Session(design).run(query);
    EXPECT_EQ(parallel.successes, serial.successes) << "threads = " << threads;
    EXPECT_DOUBLE_EQ(parallel.value, serial.value) << "threads = " << threads;
    EXPECT_DOUBLE_EQ(parallel.ci95.lo, serial.ci95.lo);
    EXPECT_DOUBLE_EQ(parallel.ci95.hi, serial.ci95.hi);
  }
}

TEST(MonteCarlo, ThreadsIdenticalForFixedFaultModel) {
  const auto design =
      sim::ChipDesign::make(biochip::make_dtmb_array(DtmbKind::kDtmb3_6, 8, 8));
  sim::YieldQuery query = fixed_count_query(5, 1500);
  const YieldEstimate certified = sim::certified_serial_loop(design, query);
  for (const std::int32_t threads : {1, 4}) {
    query.threads = threads;
    EXPECT_EQ(sim::Session(design).run(query).successes, certified.successes)
        << "threads = " << threads;
  }
}

TEST(MonteCarlo, ThreadsExceedingRunsStillCorrect) {
  // Fewer runs than one batch per thread: every run is still simulated
  // once, with the same outcome as the serial certified loop.
  const auto design =
      sim::ChipDesign::make(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  sim::YieldQuery query = bernoulli_query(0.9, 10);
  query.threads = 16;
  const YieldEstimate estimate = sim::Session(design).run(query);
  const YieldEstimate serial = sim::certified_serial_loop(design, query);
  EXPECT_EQ(estimate.runs, 10);
  EXPECT_EQ(estimate.successes, serial.successes);
}

TEST(MonteCarlo, RunStreamDependsOnlyOnSeedAndRunIndex) {
  Rng a = sim::run_stream(42, 7);
  Rng b = sim::run_stream(42, 7);
  EXPECT_EQ(a(), b());
  Rng c = sim::run_stream(42, 8);
  Rng d = sim::run_stream(43, 7);
  const auto first = sim::run_stream(42, 7)();
  EXPECT_NE(c(), first);
  EXPECT_NE(d(), first);
}

TEST(MonteCarlo, WilsonIntervalContainsEstimate) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  const YieldEstimate estimate = session.run(bernoulli_query(0.97, 2000));
  EXPECT_TRUE(estimate.ci95.contains(estimate.value));
  EXPECT_GT(estimate.ci95.width(), 0.0);
}

TEST(MonteCarlo, MatchesAnalyticOnClusterArray) {
  // On cluster-complete DTMB(1,6) arrays the closed form is exact; MC must
  // agree within its confidence interval (plus numeric slack).
  sim::Session session(biochip::make_dtmb16_cluster_array(20));  // n = 120
  for (const double p : {0.95, 0.98, 0.99}) {
    const double analytic =
        dtmb16_yield(session.design().array().primary_count(), p);
    const YieldEstimate mc = session.run(bernoulli_query(p, 20000));
    EXPECT_NEAR(mc.value, analytic, 3.0 * mc.ci95.width() / 2.0 + 0.005)
        << "p = " << p;
  }
}

TEST(MonteCarlo, MatchesAnalyticForNoRedundancyOracle) {
  // On a plain all-primary array a run is repairable iff it drew no fault,
  // so MC must reproduce p^N (within sampling error) — a direct check of
  // the Bernoulli injector.
  sim::Session session(biochip::make_plain_primary_array(100));
  const double p = 0.995;
  const YieldEstimate estimate = session.run(bernoulli_query(p, 20000));
  EXPECT_NEAR(estimate.value,
              std::pow(p, session.design().array().cell_count()), 0.01);
}

TEST(MonteCarlo, HigherRedundancyHigherYield) {
  const double p = 0.93;
  double previous = -1.0;
  for (const DtmbKind kind :
       {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6, DtmbKind::kDtmb3_6,
        DtmbKind::kDtmb4_4}) {
    sim::Session session(biochip::make_dtmb_array_with_primaries(kind, 100));
    const double yield = session.run(bernoulli_query(p, 4000)).value;
    EXPECT_GT(yield, previous - 0.03)
        << biochip::dtmb_info(kind).name << " should not lose to the "
        << "previous (lower-redundancy) design";
    previous = yield;
  }
}

TEST(MonteCarlo, YieldMonotoneInPStatistically) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10));
  double previous = -1.0;
  for (const double p : {0.85, 0.90, 0.95, 0.99}) {
    const double yield = session.run(bernoulli_query(p, 4000)).value;
    EXPECT_GT(yield, previous - 0.02);
    previous = yield;
  }
}

TEST(MonteCarlo, FixedFaultsZeroIsCertain) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  EXPECT_DOUBLE_EQ(session.run(fixed_count_query(0, 100)).value, 1.0);
}

TEST(MonteCarlo, FixedFaultsMonotoneDecreasing) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10));
  double previous = 2.0;
  for (const std::int32_t m : {1, 5, 10, 20}) {
    const double yield = session.run(fixed_count_query(m, 3000)).value;
    EXPECT_LT(yield, previous + 0.02);
    previous = yield;
  }
}

TEST(MonteCarlo, SingleFixedFaultAnalytic) {
  // With exactly one fault, all spares except possibly the faulty cell are
  // healthy, so the chip is repairable iff every primary has at least one
  // spare neighbour. On an 11x11 DTMB(2,6) array (odd side, so the pattern
  // covers every boundary primary) the single-fault yield is exactly 1.
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 11, 11);
  bool all_covered = true;
  for (const auto primary : array.primaries()) {
    if (array.spare_neighbors_of(primary).empty()) all_covered = false;
  }
  ASSERT_TRUE(all_covered);
  sim::Session session(array);
  EXPECT_DOUBLE_EQ(session.run(fixed_count_query(1, 2000)).value, 1.0);
}

TEST(MonteCarlo, OptionsValidation) {
  sim::Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  EXPECT_THROW(session.run(bernoulli_query(0.9, 0)), ContractViolation);
  EXPECT_THROW(session.run(bernoulli_query(1.5, 10)), ContractViolation);
  EXPECT_THROW(session.run(fixed_count_query(-1, 10)), ContractViolation);
}

TEST(MonteCarlo, UsedPolicyYieldAtLeastAllPolicy) {
  sim::Session session(sim::with_used_quarter(
      biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10)));
  const double p = 0.93;
  sim::YieldQuery all = bernoulli_query(p, 3000);
  sim::YieldQuery used = all;
  used.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  const double yield_all = session.run(all).value;
  const double yield_used = session.run(used).value;
  EXPECT_GE(yield_used, yield_all - 0.01);
}

}  // namespace
}  // namespace dmfb::yield

// Appended: boundary spare-row yield (Fig. 2 architecture).
namespace dmfb::yield {
namespace {

TEST(SpareRow, ColumnFormulaBasics) {
  EXPECT_DOUBLE_EQ(spare_row_yield(5, 7, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(spare_row_yield(5, 7, 0.0), 0.0);
  // One column, two cells: survives unless both fail = 1 - q^2.
  const double p = 0.9;
  EXPECT_NEAR(spare_row_yield(1, 2, p), 1.0 - 0.1 * 0.1, 1e-12);
}

TEST(SpareRow, EqualsDtmb16AtEqualRedundancy) {
  // A 7-row column (6 primaries + 1 spare) is exactly a DTMB(1,6) cluster;
  // W columns = n/6 clusters with n = 6W primaries. The two architectures
  // have IDENTICAL yield — the paper's argument against spare rows is the
  // shifted-replacement cost, not the yield.
  for (const double p : {0.90, 0.95, 0.99}) {
    for (const std::int32_t columns : {5, 10, 20}) {
      EXPECT_NEAR(spare_row_yield(columns, 7, p),
                  dtmb16_yield(6 * columns, p), 1e-12)
          << "p=" << p << " W=" << columns;
    }
  }
}

TEST(SpareRow, MonotoneInP) {
  double previous = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    const double y = spare_row_yield(8, 7, p);
    EXPECT_GE(y, previous - 1e-12);
    previous = y;
  }
}

TEST(SpareRow, ValidatesInput) {
  EXPECT_THROW(spare_row_yield(0, 7, 0.9), ContractViolation);
  EXPECT_THROW(spare_row_yield(5, 1, 0.9), ContractViolation);
  EXPECT_THROW(spare_row_yield(5, 7, 1.5), ContractViolation);
}

}  // namespace
}  // namespace dmfb::yield
