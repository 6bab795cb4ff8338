// Tests for the analytic yield bounds: rigorous bracketing of Monte-Carlo,
// exactness on DTMB(1,6) clusters, and sane behaviour at the extremes.
#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "sim/session.hpp"
#include "yield/analytic.hpp"
#include "yield/bounds.hpp"

namespace dmfb::yield {
namespace {

using biochip::DtmbKind;

TEST(YieldBounds, OrderedAndWithinUnitInterval) {
  for (const DtmbKind kind :
       {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6, DtmbKind::kDtmb3_6,
        DtmbKind::kDtmb4_4}) {
    const auto array = biochip::make_dtmb_array(kind, 12, 12);
    for (const double p : {0.5, 0.9, 0.95, 0.99}) {
      const auto bounds = analytic_yield_bounds(array, p);
      EXPECT_LE(bounds.lower, bounds.upper + 1e-12);
      EXPECT_GE(bounds.lower, 0.0);
      EXPECT_LE(bounds.upper, 1.0);
    }
  }
}

TEST(YieldBounds, ExtremesPinned) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10);
  const auto perfect = analytic_yield_bounds(array, 1.0);
  EXPECT_DOUBLE_EQ(perfect.lower, 1.0);
  EXPECT_DOUBLE_EQ(perfect.upper, 1.0);
  const auto dead = analytic_yield_bounds(array, 0.0);
  EXPECT_DOUBLE_EQ(dead.lower, 0.0);
  EXPECT_DOUBLE_EQ(dead.upper, 0.0);
}

TEST(YieldBounds, ExactOnDtmb16Clusters) {
  // On cluster-complete DTMB(1,6) arrays the dedicated-spare lower bound
  // is the paper's exact cluster formula.
  const auto array = biochip::make_dtmb16_cluster_array(20);
  for (const double p : {0.90, 0.95, 0.99}) {
    const auto bounds = analytic_yield_bounds(array, p);
    EXPECT_NEAR(bounds.lower, dtmb16_yield(array.primary_count(), p), 1e-12)
        << "p = " << p;
  }
}

TEST(YieldBounds, BracketMonteCarlo) {
  sim::YieldQuery query;
  query.runs = 10000;
  for (const DtmbKind kind :
       {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6, DtmbKind::kDtmb3_6,
        DtmbKind::kDtmb4_4}) {
    const auto array = biochip::make_dtmb_array(kind, 12, 12);
    sim::Session session(array);
    for (const double p : {0.92, 0.96, 0.99}) {
      const auto bounds = analytic_yield_bounds(array, p);
      query.fault = sim::FaultModel::bernoulli(p);
      const auto mc = session.run(query);
      EXPECT_GE(mc.value, bounds.lower - 3.0 * mc.ci95.width())
          << biochip::dtmb_info(kind).name << " p=" << p;
      EXPECT_LE(mc.value, bounds.upper + 3.0 * mc.ci95.width())
          << biochip::dtmb_info(kind).name << " p=" << p;
    }
  }
}

TEST(YieldBounds, LowerBoundBeatsNoRedundancy) {
  // Even the pessimistic dedicated-spare strategy dominates a bare array.
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 12, 12);
  for (const double p : {0.90, 0.95}) {
    const auto bounds = analytic_yield_bounds(array, p);
    EXPECT_GT(bounds.lower, no_redundancy_yield(array.primary_count(), p));
  }
}

TEST(YieldBounds, MonotoneInP) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb3_6, 10, 10);
  double previous_lower = -1.0;
  double previous_upper = -1.0;
  for (double p = 0.5; p <= 1.0; p += 0.05) {
    const auto bounds = analytic_yield_bounds(array, p);
    EXPECT_GE(bounds.lower, previous_lower - 1e-12);
    EXPECT_GE(bounds.upper, previous_upper - 1e-12);
    previous_lower = bounds.lower;
    previous_upper = bounds.upper;
  }
}

TEST(YieldBounds, RejectsBadProbability) {
  const auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6);
  EXPECT_THROW(analytic_yield_bounds(array, -0.1), ContractViolation);
  EXPECT_THROW(analytic_yield_bounds(array, 1.1), ContractViolation);
}

}  // namespace
}  // namespace dmfb::yield
