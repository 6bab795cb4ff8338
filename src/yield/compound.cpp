#include "yield/compound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace dmfb::yield {

namespace {

void normalize(DefectCountPmf& pmf) {
  const double total = std::accumulate(pmf.begin(), pmf.end(), 0.0);
  DMFB_ASSERT(total > 0.0);
  DMFB_ASSERT(std::isfinite(total));
  for (double& probability : pmf) probability /= total;
}

/// Exponentiates log-space pmf terms shifted by their maximum, then
/// normalises. The shift keeps the dominant terms representable even when
/// every raw term underflows exp() directly (large means / cell counts).
DefectCountPmf from_log_terms(const std::vector<double>& log_terms) {
  const double shift =
      *std::max_element(log_terms.begin(), log_terms.end());
  DefectCountPmf pmf(log_terms.size());
  for (std::size_t m = 0; m < log_terms.size(); ++m) {
    pmf[m] = std::exp(log_terms[m] - shift);
  }
  normalize(pmf);
  return pmf;
}

}  // namespace

DefectCountPmf binomial_defect_pmf(std::int32_t cell_count, double q) {
  DMFB_EXPECTS(cell_count >= 0);
  DMFB_EXPECTS(q >= 0.0 && q <= 1.0);
  const auto size = static_cast<std::size_t>(cell_count) + 1;
  if (q == 0.0 || q == 1.0) {  // all mass on one defect count
    DefectCountPmf pmf(size, 0.0);
    pmf[q == 0.0 ? 0 : size - 1] = 1.0;
    return pmf;
  }
  // Log-space multiplicative recurrence (the same shape poisson_defect_pmf
  // uses): log p(m) = log p(m-1) + log((n-m+1)/m) + log(q/(1-q)). The
  // direct C(n,m) q^m (1-q)^(n-m) product breaks down at production-scale
  // cell counts — the coefficient overflows to inf while the powers
  // underflow to 0, yielding NaN entries.
  std::vector<double> log_terms(size);
  log_terms[0] = static_cast<double>(cell_count) * std::log1p(-q);
  const double log_odds = std::log(q) - std::log1p(-q);
  for (std::int32_t m = 1; m <= cell_count; ++m) {
    log_terms[static_cast<std::size_t>(m)] =
        log_terms[static_cast<std::size_t>(m) - 1] +
        std::log(static_cast<double>(cell_count - m + 1) /
                 static_cast<double>(m)) +
        log_odds;
  }
  return from_log_terms(log_terms);  // sums to 1 (complete support)
}

DefectCountPmf poisson_defect_pmf(std::int32_t cell_count, double mean) {
  DMFB_EXPECTS(cell_count >= 0);
  DMFB_EXPECTS(mean >= 0.0);
  // exp(-mean) underflows to 0 near mean ~ 745, zeroing the whole pmf and
  // tripping normalize(). Above a safe threshold, run the same recurrence
  // shifted into log space; below it keep the exact linear-space recurrence
  // (bit-identical to the historical implementation).
  if (mean >= 700.0) {
    std::vector<double> log_terms(static_cast<std::size_t>(cell_count) + 1);
    log_terms[0] = -mean;
    for (std::int32_t m = 1; m <= cell_count; ++m) {
      log_terms[static_cast<std::size_t>(m)] =
          log_terms[static_cast<std::size_t>(m) - 1] +
          std::log(mean / static_cast<double>(m));
    }
    return from_log_terms(log_terms);  // folds the truncated tail back in
  }
  DefectCountPmf pmf(static_cast<std::size_t>(cell_count) + 1);
  // Recurrence p(m) = p(m-1) * mean / m avoids factorial overflow.
  double term = std::exp(-mean);
  for (std::int32_t m = 0; m <= cell_count; ++m) {
    pmf[static_cast<std::size_t>(m)] = term;
    term *= mean / static_cast<double>(m + 1);
  }
  normalize(pmf);  // fold the truncated tail back in
  return pmf;
}

DefectCountPmf negative_binomial_defect_pmf(std::int32_t cell_count,
                                            double mean, double alpha) {
  DMFB_EXPECTS(cell_count >= 0);
  DMFB_EXPECTS(mean >= 0.0);
  DMFB_EXPECTS(alpha > 0.0);
  // NB with mean m and clustering alpha: P(k) = C(alpha+k-1, k) *
  // (m/(m+alpha))^k * (alpha/(m+alpha))^alpha. Computed by recurrence:
  // P(0) = (alpha/(m+alpha))^alpha; P(k) = P(k-1) * (alpha+k-1)/k * r,
  // r = m/(m+alpha).
  const double r = mean / (mean + alpha);
  double term = std::pow(alpha / (mean + alpha), alpha);
  // At large means P(0) underflows (to 0, or to a subnormal that carries
  // too few bits to scale the rest of the pmf), as exp(-mean) does for
  // poisson_defect_pmf: run the same recurrence in log space there, and
  // keep the linear one (bit-identical to earlier releases) everywhere
  // else.
  if (term < std::numeric_limits<double>::min()) {
    std::vector<double> log_terms(static_cast<std::size_t>(cell_count) + 1);
    log_terms[0] = -alpha * std::log1p(mean / alpha);
    const double log_r = std::log(r);
    for (std::int32_t k = 1; k <= cell_count; ++k) {
      log_terms[static_cast<std::size_t>(k)] =
          log_terms[static_cast<std::size_t>(k) - 1] +
          std::log((alpha + static_cast<double>(k - 1)) /
                   static_cast<double>(k)) +
          log_r;
    }
    return from_log_terms(log_terms);
  }
  DefectCountPmf pmf(static_cast<std::size_t>(cell_count) + 1);
  for (std::int32_t k = 0; k <= cell_count; ++k) {
    pmf[static_cast<std::size_t>(k)] = term;
    term *= (alpha + static_cast<double>(k)) /
            static_cast<double>(k + 1) * r;
  }
  normalize(pmf);
  return pmf;
}

double poisson_zero_defect_yield(double mean) {
  DMFB_EXPECTS(mean >= 0.0);
  return std::exp(-mean);
}

double stapper_zero_defect_yield(double mean, double alpha) {
  DMFB_EXPECTS(mean >= 0.0);
  DMFB_EXPECTS(alpha > 0.0);
  return std::pow(1.0 + mean / alpha, -alpha);
}

CompoundYield compound_yield(sim::Session& session, const DefectCountPmf& pmf,
                             const sim::YieldQuery& base, double pmf_cutoff) {
  DMFB_EXPECTS(static_cast<std::int32_t>(pmf.size()) ==
               session.design().cell_count() + 1);
  DMFB_EXPECTS(pmf_cutoff >= 0.0);
  CompoundYield result;
  for (std::int32_t m = 0;
       m < static_cast<std::int32_t>(pmf.size()); ++m) {
    const double mass = pmf[static_cast<std::size_t>(m)];
    if (mass < pmf_cutoff) {
      result.truncated_mass += mass;
      continue;
    }
    double repairable = 1.0;
    if (m > 0) {
      sim::YieldQuery per_m = base;
      per_m.fault = sim::FaultModel::fixed_count(m);
      // Per-m seed offset predates the session port; kept verbatim so
      // compound values stay bit-identical across the redesign.
      per_m.seed = base.seed + static_cast<std::uint64_t>(m) * std::uint64_t{0x9E37};
      repairable = session.run(per_m).value;
    }
    result.value += mass * repairable;
  }
  return result;
}

}  // namespace dmfb::yield
