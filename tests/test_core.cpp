// Tests for the core facade and the design advisor.
#include <gtest/gtest.h>

#include "biochip/redundancy.hpp"
#include "common/contracts.hpp"
#include "core/defect_tolerant_biochip.hpp"
#include "core/design_advisor.hpp"
#include "core/version.hpp"
#include "yield/analytic.hpp"

namespace dmfb::core {
namespace {

using biochip::DtmbKind;

TEST(Version, IsConsistent) {
  EXPECT_EQ(kVersionMajor, 1);
  EXPECT_STREQ(kVersionString, "1.0.0");
}

TEST(Facade, BuildFromKind) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 10, 10);
  ASSERT_TRUE(chip.kind().has_value());
  EXPECT_EQ(*chip.kind(), DtmbKind::kDtmb2_6);
  EXPECT_EQ(chip.array().cell_count(), 100);
  EXPECT_NEAR(chip.redundancy_ratio(),
              biochip::measured_redundancy_ratio(chip.array()), 1e-15);
}

TEST(Facade, BuildFromArray) {
  DefectTolerantBiochip chip(biochip::make_dtmb_array(DtmbKind::kDtmb3_6, 8, 8));
  EXPECT_FALSE(chip.kind().has_value());
  EXPECT_GT(chip.array().spare_count(), 0);
}

TEST(Facade, InjectAndHeal) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 10, 10);
  Rng rng(5);
  const auto map = chip.inject(sim::FaultModel::fixed_count(7), rng);
  EXPECT_EQ(map.size(), 7u);
  EXPECT_EQ(chip.array().faulty_count(), 7);
  chip.heal();
  EXPECT_EQ(chip.array().faulty_count(), 0);
  const auto bernoulli = chip.inject(sim::FaultModel::bernoulli(0.5), rng);
  EXPECT_GT(bernoulli.size(), 0u);
}

TEST(Facade, ReconfigureMatchesRepairable) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 10, 10);
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    chip.heal();
    chip.inject(sim::FaultModel::bernoulli(0.92), rng);
    EXPECT_EQ(chip.reconfigure().success, chip.repairable());
  }
}

TEST(Facade, TestChipLocalisesInjectedFaults) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 8, 8);
  Rng rng(7);
  chip.inject(sim::FaultModel::fixed_count(3), rng);
  if (chip.array().health(0) == biochip::CellHealth::kFaulty) {
    GTEST_SKIP() << "source faulty in this draw";
  }
  const auto session = chip.test_chip();
  for (const auto cell : session.faults_found) {
    EXPECT_EQ(chip.array().health(cell), biochip::CellHealth::kFaulty);
  }
}

TEST(Facade, EstimateYieldHealsFirst) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 8, 8);
  Rng rng(8);
  chip.inject(sim::FaultModel::fixed_count(10), rng);
  const auto estimate = chip.estimate_yield(
      {.fault = sim::FaultModel::bernoulli(0.99), .runs = 500});
  EXPECT_GT(estimate.value, 0.5);
  EXPECT_EQ(chip.array().faulty_count(), 0);
}

TEST(Facade, FixedFaultYieldDecreasesInM) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 10, 10);
  sim::YieldQuery query;
  query.runs = 1500;
  query.fault = sim::FaultModel::fixed_count(5);
  const double y5 = chip.estimate_yield(query).value;
  query.fault = sim::FaultModel::fixed_count(25);
  const double y25 = chip.estimate_yield(query).value;
  EXPECT_GT(y5, y25);
}

TEST(Facade, InjectParametricAndMixture) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 10, 10);
  Rng rng(9);
  // Sigmas widened 8x put every tolerance at <= 0.5 sigma, so a single
  // draw produces faults deterministically.
  const auto wide = sim::FaultModel::parametric(8.0);
  const auto parametric = chip.inject(wide, rng);
  EXPECT_GT(parametric.size(), 0u);
  EXPECT_EQ(parametric.count_of(fault::FaultClass::kParametric),
            static_cast<std::int32_t>(parametric.size()));
  EXPECT_EQ(chip.array().faulty_count(),
            static_cast<std::int32_t>(parametric.size()));
  chip.heal();
  const auto mixture = chip.inject(
      sim::FaultModel::mixture({sim::FaultModel::bernoulli(0.8), wide}), rng);
  EXPECT_GT(mixture.count_of(fault::FaultClass::kCatastrophic), 0);
  EXPECT_EQ(chip.array().faulty_count(),
            static_cast<std::int32_t>(mixture.size()));
}

TEST(Facade, EstimateYieldMatchesAFreshSessionAndHeals) {
  DefectTolerantBiochip chip(DtmbKind::kDtmb2_6, 8, 8);
  Rng rng(10);
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.95);
  query.runs = 400;
  // The facade answers exactly what a session over the same array does.
  const auto via_facade = chip.estimate_yield(query);
  const auto via_session = sim::Session(chip.array()).run(query);
  EXPECT_EQ(via_facade.successes, via_session.successes);
  // It heals a faulty chip before snapshotting, for any fault model.
  chip.inject(sim::FaultModel::fixed_count(10), rng);
  query.fault = sim::FaultModel::mixture(
      {sim::FaultModel::bernoulli(0.97), sim::FaultModel::parametric(1.2)});
  const auto mixture_estimate = chip.estimate_yield(query);
  EXPECT_EQ(chip.array().faulty_count(), 0);
  EXPECT_EQ(mixture_estimate.runs, 400);
  // The composite model can only hurt relative to its bernoulli component
  // alone (the extra mechanisms add faults, never remove them).
  query.fault = sim::FaultModel::bernoulli(0.97);
  const auto component_only = chip.estimate_yield(query);
  EXPECT_LE(mixture_estimate.value, component_only.value);
}

// -------------------------------------------------------------- advisor

/// An advisor's base query: it ignores the fault model, so only the run
/// budget is set.
sim::YieldQuery runs_only(std::int32_t runs) {
  sim::YieldQuery query;
  query.runs = runs;
  return query;
}

TEST(Advisor, AssessesFiveDesigns) {
  const DesignAdvisor advisor(100, runs_only(800));
  const Advice advice = advisor.assess(0.95);
  ASSERT_EQ(advice.assessments.size(), 5u);  // none + 4 DTMB levels
  EXPECT_EQ(advice.assessments.front().name, "no-redundancy");
  for (const auto& assessment : advice.assessments) {
    EXPECT_GE(assessment.primaries, 100);
    EXPECT_GE(assessment.yield, 0.0);
    EXPECT_LE(assessment.yield, 1.0);
    EXPECT_NEAR(assessment.effective_yield,
                yield::effective_yield(assessment.yield,
                                       assessment.redundancy_ratio),
                1e-12);
  }
}

TEST(Advisor, AssessModelCoversParametricAndMixtureKinds) {
  const DesignAdvisor advisor(100, runs_only(400));
  const Advice advice =
      advisor.assess_model(sim::FaultModel::parametric(1.2));
  ASSERT_EQ(advice.assessments.size(), 5u);  // MC baseline + 4 DTMB levels
  EXPECT_EQ(advice.assessments.front().name, "no-redundancy");
  // The baseline reports its realised plain-array geometry (10 x 10 here).
  EXPECT_EQ(advice.assessments.front().primaries, 100);
  EXPECT_EQ(advice.assessments.front().total_cells, 100);
  EXPECT_DOUBLE_EQ(advice.p, 0.0);  // not a bernoulli operating point
  for (const auto& assessment : advice.assessments) {
    EXPECT_GE(assessment.yield, 0.0);
    EXPECT_LE(assessment.yield, 1.0);
  }
  // Redundancy must beat the bare array under heavy parametric stress.
  EXPECT_NE(advice.best_yield().name, "no-redundancy");

  // Bernoulli via assess_model reproduces the DTMB rows of assess() (the
  // baseline differs by design: MC vs the p^n closed form).
  const Advice closed = advisor.assess(0.95);
  const Advice sampled =
      advisor.assess_model(sim::FaultModel::bernoulli(0.95));
  EXPECT_DOUBLE_EQ(sampled.p, 0.95);
  for (std::size_t i = 1; i < closed.assessments.size(); ++i) {
    EXPECT_DOUBLE_EQ(sampled.assessments[i].yield,
                     closed.assessments[i].yield)
        << closed.assessments[i].name;
  }
  EXPECT_NEAR(sampled.assessments.front().yield,
              closed.assessments.front().yield, 0.05);

  const Advice mixed = advisor.assess_model(sim::FaultModel::mixture(
      {sim::FaultModel::bernoulli(0.97), sim::FaultModel::parametric(1.0)}));
  ASSERT_EQ(mixed.assessments.size(), 5u);
}

TEST(Advisor, RedundancyWinsAtLowSurvival) {
  const DesignAdvisor advisor(100, runs_only(800));
  const Advice advice = advisor.assess(0.90);
  // At p = 0.90 the bare 100-cell array yields ~2.7e-5; any redundancy wins.
  EXPECT_NE(advice.best_yield().name, "no-redundancy");
  EXPECT_NE(advice.best_effective_yield().name, "no-redundancy");
}

TEST(Advisor, HighRedundancyBestAtVeryLowSurvival) {
  const DesignAdvisor advisor(100, runs_only(800));
  const Advice advice = advisor.assess(0.85);
  ASSERT_TRUE(advice.best_yield().kind.has_value());
  EXPECT_EQ(*advice.best_yield().kind, DtmbKind::kDtmb4_4);
}

TEST(Advisor, CheapestMeetingTarget) {
  const DesignAdvisor advisor(100, runs_only(800));
  const Advice advice = advisor.assess(0.99);
  const DesignAssessment* pick = advice.cheapest_meeting(0.9);
  ASSERT_NE(pick, nullptr);
  EXPECT_GE(pick->yield, 0.9);
  // Nothing cheaper meets the bar.
  for (const auto& assessment : advice.assessments) {
    if (assessment.redundancy_ratio < pick->redundancy_ratio) {
      EXPECT_LT(assessment.yield, 0.9);
    }
  }
}

TEST(Advisor, ImpossibleTargetGivesNull) {
  const DesignAdvisor advisor(200, runs_only(300));
  const Advice advice = advisor.assess(0.5);
  EXPECT_EQ(advice.cheapest_meeting(0.99), nullptr);
}

TEST(Advisor, ValidatesInput) {
  EXPECT_THROW(DesignAdvisor(0), ContractViolation);
  const DesignAdvisor advisor(50);
  EXPECT_THROW(advisor.assess(1.5), ContractViolation);
}

}  // namespace
}  // namespace dmfb::core
