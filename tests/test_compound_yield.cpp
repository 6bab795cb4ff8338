// Tests for the compound yield models (defect-count statistics composed
// with Monte-Carlo repairability).
#include <cmath>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "yield/analytic.hpp"
#include "sim/session.hpp"
#include "yield/compound.hpp"

namespace dmfb::yield {
namespace {

double pmf_sum(const DefectCountPmf& pmf) {
  return std::accumulate(pmf.begin(), pmf.end(), 0.0);
}

double pmf_mean(const DefectCountPmf& pmf) {
  double mean = 0.0;
  for (std::size_t m = 0; m < pmf.size(); ++m) {
    mean += static_cast<double>(m) * pmf[m];
  }
  return mean;
}

/// True iff every term is finite and non-negative.
bool pmf_well_formed(const DefectCountPmf& pmf) {
  for (const double term : pmf) {
    if (!std::isfinite(term) || term < 0.0) return false;
  }
  return true;
}

TEST(DefectPmfProperty, NormalisedAndFiniteAcrossTheParameterGrid) {
  // PR 4 moved these pmfs to log-space recurrences so they survive large n
  // and large means; this grid pins that contract: every cell normalises to
  // 1 +/- 1e-9 with finite non-negative terms, up to n = 10000 cells and a
  // mean of 800 defects.
  const std::int32_t cell_counts[] = {1, 16, 257, 1024, 10000};
  const double qs[] = {0.0, 1e-6, 0.03, 0.5, 0.97, 1.0};
  const double means[] = {0.0, 0.5, 8.0, 80.0, 800.0};
  for (const std::int32_t n : cell_counts) {
    for (const double q : qs) {
      const DefectCountPmf pmf = binomial_defect_pmf(n, q);
      ASSERT_EQ(pmf.size(), static_cast<std::size_t>(n) + 1);
      EXPECT_TRUE(pmf_well_formed(pmf)) << "binomial n=" << n << " q=" << q;
      EXPECT_NEAR(pmf_sum(pmf), 1.0, 1e-9) << "binomial n=" << n
                                           << " q=" << q;
    }
    for (const double mean : means) {
      const DefectCountPmf poisson = poisson_defect_pmf(n, mean);
      ASSERT_EQ(poisson.size(), static_cast<std::size_t>(n) + 1);
      EXPECT_TRUE(pmf_well_formed(poisson))
          << "poisson n=" << n << " mean=" << mean;
      EXPECT_NEAR(pmf_sum(poisson), 1.0, 1e-9)
          << "poisson n=" << n << " mean=" << mean;
      if (mean > 0.0) {
        const DefectCountPmf stapper =
            negative_binomial_defect_pmf(n, mean, 2.0);
        EXPECT_TRUE(pmf_well_formed(stapper))
            << "negative binomial n=" << n << " mean=" << mean;
        EXPECT_NEAR(pmf_sum(stapper), 1.0, 1e-9)
            << "negative binomial n=" << n << " mean=" << mean;
      }
    }
  }
}

TEST(DefectPmf, AllModelsNormalised) {
  EXPECT_NEAR(pmf_sum(binomial_defect_pmf(100, 0.03)), 1.0, 1e-12);
  EXPECT_NEAR(pmf_sum(poisson_defect_pmf(100, 3.0)), 1.0, 1e-12);
  EXPECT_NEAR(pmf_sum(negative_binomial_defect_pmf(100, 3.0, 2.0)), 1.0,
              1e-12);
}

TEST(DefectPmf, MeansMatchParameters) {
  EXPECT_NEAR(pmf_mean(binomial_defect_pmf(200, 0.02)), 4.0, 1e-9);
  EXPECT_NEAR(pmf_mean(poisson_defect_pmf(200, 4.0)), 4.0, 1e-6);
  EXPECT_NEAR(pmf_mean(negative_binomial_defect_pmf(300, 4.0, 2.0)), 4.0,
              1e-3);
}

bool pmf_is_finite(const DefectCountPmf& pmf) {
  for (const double probability : pmf) {
    if (!std::isfinite(probability) || probability < 0.0) return false;
  }
  return true;
}

TEST(DefectPmf, BinomialSurvivesProductionScaleCellCounts) {
  // The old C(n,m)-based evaluation went inf * 0 = NaN for large n and
  // tripped normalize()'s assert; the log-space recurrence must stay
  // finite, normalised and centred at n q.
  const auto pmf = binomial_defect_pmf(10000, 0.003);
  ASSERT_TRUE(pmf_is_finite(pmf));
  EXPECT_NEAR(pmf_sum(pmf), 1.0, 1e-9);
  EXPECT_NEAR(pmf_mean(pmf), 30.0, 1e-6);
  // A mid-p case drives the largest coefficients (C(10000, 5000)).
  const auto wide = binomial_defect_pmf(10000, 0.5);
  ASSERT_TRUE(pmf_is_finite(wide));
  EXPECT_NEAR(pmf_sum(wide), 1.0, 1e-9);
  EXPECT_NEAR(pmf_mean(wide), 5000.0, 1e-3);
}

TEST(DefectPmf, BinomialMatchesExactValuesForSmallN) {
  const int n = 60;
  const double q = 0.07;
  const auto pmf = binomial_defect_pmf(n, q);
  for (int m = 0; m <= n; ++m) {
    const double exact = dmfb::binomial_pmf(n, m, q);
    EXPECT_NEAR(pmf[static_cast<std::size_t>(m)], exact,
                1e-12 + 1e-10 * exact)
        << "m = " << m;
  }
  // Degenerate corners keep their all-or-nothing mass.
  const auto certain = binomial_defect_pmf(40, 1.0);
  EXPECT_DOUBLE_EQ(certain.back(), 1.0);
  const auto none = binomial_defect_pmf(40, 0.0);
  EXPECT_DOUBLE_EQ(none.front(), 1.0);
}

TEST(DefectPmf, PoissonSurvivesLargeMeans) {
  // exp(-mean) underflows to an all-zero pmf past mean ~ 745 (assert); the
  // shifted log-space recurrence must keep the truncated pmf well defined.
  const auto pmf = poisson_defect_pmf(2000, 800.0);
  ASSERT_TRUE(pmf_is_finite(pmf));
  EXPECT_NEAR(pmf_sum(pmf), 1.0, 1e-9);
  EXPECT_NEAR(pmf_mean(pmf), 800.0, 0.5);
  // Truncation below the mean: the mass piles up at the cut, normalised.
  const auto truncated = poisson_defect_pmf(100, 800.0);
  ASSERT_TRUE(pmf_is_finite(truncated));
  EXPECT_NEAR(pmf_sum(truncated), 1.0, 1e-9);
  // Mass piles up at the cut with ratio p(m-1)/p(m) = m/mean = 1/8, so
  // p(100) ~ 1 - 1/8 = 0.875 of the renormalised distribution.
  EXPECT_NEAR(truncated.back(), 0.875, 0.01);
}

TEST(DefectPmf, NegativeBinomialSurvivesLargeMeans) {
  // (alpha / (mean + alpha))^alpha underflows to 0 at these means, which
  // zeroed the linear recurrence's P(0) and the whole pmf with it.
  for (const auto& [n, mean, alpha] :
       {std::tuple{2000, 800.0, 1e6}, std::tuple{2000, 760.0, 1e9},
        std::tuple{4000, 3000.0, 1000.0}}) {
    const auto pmf = negative_binomial_defect_pmf(n, mean, alpha);
    ASSERT_TRUE(pmf_is_finite(pmf))
        << "n=" << n << " mean=" << mean << " alpha=" << alpha;
    EXPECT_NEAR(pmf_sum(pmf), 1.0, 1e-9)
        << "n=" << n << " mean=" << mean << " alpha=" << alpha;
  }
  // alpha -> infinity recovers Poisson, term by term.
  const auto nb = negative_binomial_defect_pmf(2000, 800.0, 1e6);
  const auto poisson = poisson_defect_pmf(2000, 800.0);
  ASSERT_EQ(nb.size(), poisson.size());
  for (std::size_t m = 0; m < nb.size(); ++m) {
    EXPECT_NEAR(nb[m], poisson[m], 1e-3) << "m = " << m;
  }
}

TEST(DefectPmf, PoissonLargeMeanAgreesWithSmallMeanRecurrence) {
  // Both branches live just either side of the 700 threshold; the ratio
  // structure p(m+1)/p(m) = mean/(m+1) must agree.
  for (const auto& pmf :
       {poisson_defect_pmf(800, 699.0), poisson_defect_pmf(800, 701.0)}) {
    ASSERT_TRUE(pmf_is_finite(pmf));
    EXPECT_NEAR(pmf_sum(pmf), 1.0, 1e-9);
  }
  const auto below = poisson_defect_pmf(800, 699.0);
  const auto above = poisson_defect_pmf(800, 701.0);
  for (const std::size_t m : {600u, 700u, 750u}) {
    EXPECT_NEAR(below[m + 1] / below[m], 699.0 / (static_cast<double>(m) + 1.0),
                1e-9);
    EXPECT_NEAR(above[m + 1] / above[m], 701.0 / (static_cast<double>(m) + 1.0),
                1e-9);
  }
}

TEST(DefectPmf, NegativeBinomialHasFatterTailThanPoisson) {
  const auto poisson = poisson_defect_pmf(200, 5.0);
  const auto nb = negative_binomial_defect_pmf(200, 5.0, 1.5);
  // More mass at zero *and* in the deep tail — the clustering signature.
  EXPECT_GT(nb[0], poisson[0]);
  double nb_tail = 0.0, poisson_tail = 0.0;
  for (std::size_t m = 15; m < poisson.size(); ++m) {
    nb_tail += nb[m];
    poisson_tail += poisson[m];
  }
  EXPECT_GT(nb_tail, poisson_tail);
}

TEST(DefectPmf, NegativeBinomialConvergesToPoisson) {
  const auto poisson = poisson_defect_pmf(100, 3.0);
  const auto nb = negative_binomial_defect_pmf(100, 3.0, 1e6);
  for (std::size_t m = 0; m < 20; ++m) {
    EXPECT_NEAR(nb[m], poisson[m], 1e-4) << "m = " << m;
  }
}

TEST(ZeroDefectYields, ClosedForms) {
  EXPECT_NEAR(poisson_zero_defect_yield(2.0), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(stapper_zero_defect_yield(2.0, 1.0), 1.0 / 3.0, 1e-12);
  // Clustering raises the zero-defect yield at equal defect density (the
  // classical Stapper result).
  EXPECT_GT(stapper_zero_defect_yield(2.0, 1.0),
            poisson_zero_defect_yield(2.0));
  // alpha -> infinity recovers Poisson.
  EXPECT_NEAR(stapper_zero_defect_yield(2.0, 1e9),
              poisson_zero_defect_yield(2.0), 1e-6);
}

sim::YieldQuery runs_query(std::int32_t runs) {
  sim::YieldQuery query;
  query.runs = runs;
  return query;
}

TEST(CompoundYield, BinomialPmfReproducesBernoulliMc) {
  sim::Session session(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 10, 10));
  const double p = 0.95;
  sim::YieldQuery query = runs_query(4000);
  query.fault = sim::FaultModel::bernoulli(p);
  const auto direct = session.run(query);
  const auto composed = compound_yield(
      session, binomial_defect_pmf(session.design().cell_count(), 1.0 - p),
      query);
  EXPECT_NEAR(composed.value, direct.value, 0.02);
  EXPECT_LT(composed.truncated_mass, 1e-3);
}

TEST(CompoundYield, ZeroMeanIsPerfect) {
  sim::Session session(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 8, 8));
  const auto composed = compound_yield(
      session, poisson_defect_pmf(session.design().cell_count(), 0.0),
      runs_query(200));
  EXPECT_NEAR(composed.value, 1.0, 1e-9);
}

TEST(CompoundYield, RedundancyBeatsBareChipUnderAnyCountModel) {
  sim::Session redundant(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 12, 12));
  const std::int32_t cells = redundant.design().cell_count();
  const double mean_defects = 4.0;
  for (const auto& pmf :
       {poisson_defect_pmf(cells, mean_defects),
        negative_binomial_defect_pmf(cells, mean_defects, 2.0)}) {
    const auto composed = compound_yield(redundant, pmf, runs_query(3000));
    // A redundancy-free chip succeeds only with zero defects: pmf[0].
    EXPECT_GT(composed.value, pmf[0] + 0.1);
  }
}

TEST(CompoundYield, ClusteringSignFlipsWithRedundancy) {
  // Classic result: die-to-die clustering *raises* the yield of a
  // redundancy-free chip (more zero-defect dies). But a redundant chip's
  // repairability curve f(m) is concave over the operating range, so by
  // Jensen the extra count variance *lowers* its expected yield — the
  // benefit of clustering is absorbed by the redundancy itself.
  sim::Session session(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 12, 12));
  const std::int32_t cells = session.design().cell_count();
  const double mean_defects = 8.0;
  const auto poisson_pmf_v = poisson_defect_pmf(cells, mean_defects);
  const auto nb_pmf = negative_binomial_defect_pmf(cells, mean_defects, 1.0);
  // Redundancy-free view: yield = P(zero defects). Clustering helps.
  EXPECT_GT(nb_pmf[0], poisson_pmf_v[0]);
  // Redundant chip: clustering hurts at this operating point.
  const auto poisson = compound_yield(session, poisson_pmf_v, runs_query(3000));
  const auto clustered = compound_yield(session, nb_pmf, runs_query(3000));
  EXPECT_LT(clustered.value, poisson.value);
}

TEST(CompoundYield, ValidatesInput) {
  sim::Session session(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 6, 6));
  EXPECT_THROW(
      compound_yield(session, DefectCountPmf{0.5, 0.5}, runs_query(10)),
      ContractViolation);
  EXPECT_THROW(negative_binomial_defect_pmf(10, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(poisson_defect_pmf(-1, 1.0), ContractViolation);
}

}  // namespace
}  // namespace dmfb::yield
