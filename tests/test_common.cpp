// Tests for the common kernel: contracts, RNG, statistics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace dmfb {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, ExpectsThrowsOnViolation) {
  EXPECT_THROW(DMFB_EXPECTS(1 == 2), ContractViolation);
}

TEST(Contracts, ExpectsPassesOnSatisfied) {
  EXPECT_NO_THROW(DMFB_EXPECTS(2 + 2 == 4));
}

TEST(Contracts, EnsuresThrowsOnViolation) {
  EXPECT_THROW(DMFB_ENSURES(false), ContractViolation);
}

TEST(Contracts, MessageNamesKindAndCondition) {
  try {
    DMFB_ASSERT(1 < 0);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("invariant"), std::string::npos);
    EXPECT_NE(what.find("1 < 0"), std::string::npos);
  }
}

// ----------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 50; ++i) values.insert(rng());
  EXPECT_GT(values.size(), 45u);  // not stuck
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsHalf) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform01());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

/// Probabilities at the edges of the integer-threshold equivalence: zero,
/// the smallest subnormal, 2^-53 and its neighbours, exact multiples of
/// 2^-53 (0.25, 0.5, 0.75), the largest double below 1, and 1.
std::vector<double> threshold_edge_probabilities() {
  const double tiny = 0x1.0p-53;
  return {0.0,
          std::numeric_limits<double>::denorm_min(),
          std::nextafter(tiny, 0.0),
          tiny,
          std::nextafter(tiny, 1.0),
          0.08,
          0.25,
          0.5,
          0.75,
          0.92,
          std::nextafter(1.0, 0.0),
          1.0};
}

TEST(BernoulliTrials, ReplaysPerIndexBernoulliDrawForDraw) {
  constexpr std::int32_t kCount = 300;
  for (const double prob : threshold_edge_probabilities()) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      // Reference: the per-index loop every v1 site used to hand-code, with
      // one classification draw per hit.
      Rng reference(seed);
      std::vector<std::int32_t> expected;
      for (std::int32_t index = 0; index < kCount; ++index) {
        if (reference.bernoulli(prob)) {
          expected.push_back(index);
          (void)reference.uniform01();
        }
      }
      Rng rng(seed);
      std::vector<std::int32_t> hits;
      bernoulli_trials(rng, kCount, prob, [&](std::int32_t index, Rng& draws) {
        hits.push_back(index);
        (void)draws.uniform01();
      });
      ASSERT_EQ(hits, expected) << "prob=" << prob << " seed=" << seed;
      // The next raw output pins the final state: same draw count, same
      // stream, and the local copy was written back.
      ASSERT_EQ(rng(), reference()) << "prob=" << prob << " seed=" << seed;
    }
  }
}

TEST(BernoulliTrials, ThresholdIsExactAtTheBoundaryDraw) {
  // Random streams never land on the boundary, so compare the integer test
  // against uniform01()'s double test on crafted raw draws around it.
  const auto double_test = [](std::uint64_t x, double prob) {
    return static_cast<double>(x >> 11) * 0x1.0p-53 < prob;
  };
  for (const double prob : threshold_edge_probabilities()) {
    if (prob <= 0.0 || prob >= 1.0) continue;  // no trial draw
    const std::uint64_t threshold = bernoulli_threshold(prob);
    ASSERT_GE(threshold, std::uint64_t{2048}) << prob;
    for (const std::uint64_t x :
         {std::uint64_t{0}, threshold - 2049, threshold - 2048,
          threshold - 1, threshold, threshold + 2047, threshold + 2048,
          std::numeric_limits<std::uint64_t>::max()}) {
      EXPECT_EQ(x < threshold, double_test(x, prob))
          << "prob=" << prob << " x=" << x;
    }
  }
  // q * 2^53 an exact integer k: uniform01() == q at x = k << 11, a miss.
  for (const double prob : {0.25, 0.5, 0.75}) {
    const auto boundary =
        static_cast<std::uint64_t>(prob * 0x1.0p53) << 11;
    EXPECT_FALSE(double_test(boundary, prob));
    EXPECT_FALSE(boundary < bernoulli_threshold(prob));
    EXPECT_TRUE(boundary - 1 < bernoulli_threshold(prob));
  }
}

TEST(BernoulliTrials, DegenerateProbabilitiesKeepBernoulliDrawSemantics) {
  const Rng fresh(17);
  int calls = 0;
  const auto count_hits = [&](std::int32_t, Rng&) { ++calls; };
  // prob <= 0 and count <= 0 draw nothing and hit nothing.
  for (const double prob : {0.0, -1.0}) {
    Rng rng = fresh;
    bernoulli_trials(rng, 100, prob, count_hits);
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(rng(), Rng(fresh)());
  }
  Rng empty = fresh;
  bernoulli_trials(empty, 0, 0.5, count_hits);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(empty(), Rng(fresh)());
  // prob >= 1 hits every index in order without a trial draw.
  for (const double prob : {1.0, 2.0}) {
    Rng rng = fresh;
    std::vector<std::int32_t> hits;
    bernoulli_trials(rng, 50, prob,
                     [&](std::int32_t index, Rng&) { hits.push_back(index); });
    ASSERT_EQ(hits.size(), 50u);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], static_cast<std::int32_t>(i));
    }
    EXPECT_EQ(rng(), Rng(fresh)());
  }
  Rng rng = fresh;
  EXPECT_THROW(bernoulli_trials(rng, 10, std::nan(""), count_hits),
               ContractViolation);
}

TEST(Rng, UniformBelowStaysBelow) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsReversedRange) {
  // The documented contract is lo <= hi; silently returning lo would skew
  // samples at any misuse site, so it must fail loudly instead.
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
  EXPECT_THROW(rng.uniform_int(0, -1), ContractViolation);
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(1234);
  Rng child = parent.split();
  RunningStats diff;
  for (int i = 0; i < 10000; ++i) {
    diff.add(parent.uniform01() - child.uniform01());
  }
  EXPECT_NEAR(diff.mean(), 0.0, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(2);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(6);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::int32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(6);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)], i);
}

TEST(Rng, SampleWithoutReplacementUniformMarginals) {
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    for (const auto v : rng.sample_without_replacement(10, 3)) {
      ++counts[static_cast<size_t>(v)];
    }
  }
  // Each element appears with probability 3/10.
  for (const int count : counts) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.3, 0.02);
  }
}

TEST(Rng, SampleRejectsBadArguments) {
  Rng rng(1);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), ContractViolation);
  EXPECT_THROW(rng.sample_without_replacement(-1, 0), ContractViolation);
}

// --------------------------------------------------------------------- stats

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.add(4.5);
  EXPECT_EQ(stats.count(), 1);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.5);
  EXPECT_DOUBLE_EQ(stats.max(), 4.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Wilson, DegenerateNoTrials) {
  const Interval interval = wilson_interval(0, 0);
  EXPECT_EQ(interval.lo, 0.0);
  EXPECT_EQ(interval.hi, 1.0);
}

TEST(Wilson, ContainsPointEstimate) {
  const Interval interval = wilson_interval(73, 100);
  EXPECT_TRUE(interval.contains(0.73));
}

TEST(Wilson, ShrinksWithMoreTrials) {
  const Interval small = wilson_interval(50, 100);
  const Interval large = wilson_interval(5000, 10000);
  EXPECT_LT(large.width(), small.width());
}

TEST(Wilson, AllSuccessesStillBelowOne) {
  const Interval interval = wilson_interval(100, 100);
  EXPECT_LT(interval.lo, 1.0);
  EXPECT_DOUBLE_EQ(interval.hi, 1.0);
}

TEST(Wilson, SymmetricAroundHalf) {
  const Interval a = wilson_interval(30, 100);
  const Interval b = wilson_interval(70, 100);
  EXPECT_NEAR(a.lo, 1.0 - b.hi, 1e-12);
  EXPECT_NEAR(a.hi, 1.0 - b.lo, 1e-12);
}

TEST(Wilson, RejectsBadInput) {
  EXPECT_THROW(wilson_interval(5, 4), ContractViolation);
  EXPECT_THROW(wilson_interval(-1, 4), ContractViolation);
  EXPECT_THROW(wilson_interval(1, 4, 0.0), ContractViolation);
}

TEST(BernoulliEstimate, CountsAndProportion) {
  BernoulliEstimate estimate;
  for (int i = 0; i < 10; ++i) estimate.add(i < 7);
  EXPECT_EQ(estimate.trials(), 10);
  EXPECT_EQ(estimate.successes(), 7);
  EXPECT_DOUBLE_EQ(estimate.proportion(), 0.7);
}

TEST(Binomial, CoefficientKnownValues) {
  EXPECT_DOUBLE_EQ(binomial_coefficient(7, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(7, 1), 7.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(7, 3), 35.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(7, 7), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(7, 8), 0.0);
}

TEST(Binomial, PmfSumsToOne) {
  double sum = 0.0;
  for (int k = 0; k <= 20; ++k) sum += binomial_pmf(20, k, 0.37);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Binomial, CdfMonotoneAndComplete) {
  double prev = 0.0;
  for (int k = 0; k <= 15; ++k) {
    const double cdf = binomial_cdf(15, k, 0.6);
    EXPECT_GE(cdf, prev);
    prev = cdf;
  }
  EXPECT_NEAR(prev, 1.0, 1e-12);
}

TEST(Binomial, LargeNPmfIsFiniteAndNormalised) {
  // The direct C(n,k) p^k (1-p)^(n-k) product produces inf * 0 = NaN for
  // production-scale n; the log-space path must stay finite and sum to 1.
  const int n = 10000;
  const double p = 0.003;
  double sum = 0.0;
  for (int k = 0; k <= n; ++k) {
    const double pmf = binomial_pmf(n, k, p);
    ASSERT_TRUE(std::isfinite(pmf)) << "k = " << k;
    ASSERT_GE(pmf, 0.0) << "k = " << k;
    sum += pmf;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Centre-of-mass sanity: the mode sits near n p.
  EXPECT_GT(binomial_pmf(n, 30, p), binomial_pmf(n, 300, p));
}

TEST(Binomial, LargeNPmfMatchesSmallNExactValues) {
  // The log-space branch agrees with the exact product where both work.
  for (const int k : {0, 1, 250, 500, 999, 1000}) {
    const double exact = binomial_pmf(1000, k, 0.4);
    const double via_logs =
        std::exp(std::lgamma(1001.0) - std::lgamma(k + 1.0) -
                 std::lgamma(1001.0 - k) + k * std::log(0.4) +
                 (1000.0 - k) * std::log1p(-0.4));
    EXPECT_NEAR(via_logs, exact, 1e-12 + 1e-10 * exact) << "k = " << k;
  }
  // p = 0 / 1 edges must not hit log(0).
  EXPECT_DOUBLE_EQ(binomial_pmf(2000, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(2000, 5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(2000, 2000, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(2000, 1999, 1.0), 0.0);
}

TEST(Binomial, PaperClusterTerm) {
  // P(at most one of 7 cells fails) at p = 0.95 — the DTMB(1,6) cluster.
  const double p = 0.95;
  const double direct = std::pow(p, 7) + 7.0 * std::pow(p, 6) * (1.0 - p);
  const double via_cdf = binomial_cdf(7, 1, 1.0 - p);
  EXPECT_NEAR(direct, via_cdf, 1e-12);
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  std::uint64_t state2 = 0;
  EXPECT_EQ(splitmix64(state2), first);
}

// ------------------------------------------------------------------ parse

TEST(Parse, IntAcceptsDecimalAndHex) {
  EXPECT_EQ(common::parse_int("42"), 42);
  EXPECT_EQ(common::parse_int("-7"), -7);
  EXPECT_EQ(common::parse_int("0x10"), 16);
  EXPECT_EQ(common::parse_uint64("0xD0E5A11"), 0xD0E5A11ULL);
}

TEST(Parse, IntRejectsGarbageThatAtoiAccepts) {
  // atoi("abc") == 0 and atoi("12abc") == 12; both must fail here.
  EXPECT_FALSE(common::parse_int("abc").has_value());
  EXPECT_FALSE(common::parse_int("12abc").has_value());
  EXPECT_FALSE(common::parse_int("").has_value());
  EXPECT_FALSE(common::parse_int(" 12 ").has_value());
  EXPECT_FALSE(common::parse_int("999999999999999999999").has_value());
  EXPECT_FALSE(common::parse_uint64("-1").has_value());
  // strtoull skips whitespace before negating, so these would wrap.
  EXPECT_FALSE(common::parse_uint64(" -1").has_value());
  EXPECT_FALSE(common::parse_uint64("\t-2").has_value());
  EXPECT_FALSE(common::parse_uint64(" 7").has_value());
}

TEST(Parse, IntInEnforcesBounds) {
  EXPECT_EQ(common::parse_int_in("5", 0, 10), 5);
  EXPECT_FALSE(common::parse_int_in("11", 0, 10).has_value());
  EXPECT_FALSE(common::parse_int_in("-1", 0, 10).has_value());
}

TEST(Parse, DoubleRejectsTrailingJunkAndNonFinite) {
  EXPECT_DOUBLE_EQ(*common::parse_double("0.9"), 0.9);
  // atof("0.9x") == 0.9; strict parsing must reject it.
  EXPECT_FALSE(common::parse_double("0.9x").has_value());
  EXPECT_FALSE(common::parse_double("").has_value());
  EXPECT_FALSE(common::parse_double("inf").has_value());
  EXPECT_FALSE(common::parse_double("nan").has_value());
}

TEST(Parse, DoubleInEnforcesBounds) {
  EXPECT_DOUBLE_EQ(*common::parse_double_in("0.5", 0.0, 1.0), 0.5);
  EXPECT_FALSE(common::parse_double_in("1.5", 0.0, 1.0).has_value());
}

}  // namespace
}  // namespace dmfb
