// Defect injection for Monte-Carlo yield simulation.
//
// Three spatial models:
//  * BernoulliInjector — every cell fails independently with probability
//    q = 1 - p. This is the paper's model (Section 6 Assumption): valid for
//    random small spot defects from imperfect materials and particles.
//  * FixedCountInjector — exactly m distinct cells fail, uniformly at
//    random. This is the Fig. 13 experiment ("we randomly introduce m cell
//    failures").
//  * ClusteredInjector — defects arrive as spatial clusters (a Poisson
//    number of spots; each spot kills the cells of a small disk with a
//    radially decaying probability). Ablation model for the independence
//    assumption; real spot defects are often correlated.
//
// Injectors mark cells faulty on the array and return the FaultMap with a
// concrete catastrophic-defect attribution (sampled from the Section 4
// taxonomy) so downstream reporting can show realistic fault mixes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "biochip/hex_array.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"

namespace dmfb::fault {

/// Relative frequencies of the three catastrophic defect mechanisms.
/// Dielectric breakdown dominates in electrowetting devices (high-voltage
/// stress), shorts and opens split the remainder (open-connection weight is
/// the 0.2 remainder).
inline constexpr double kBreakdownWeight = 0.5;
inline constexpr double kShortWeight = 0.3;

/// Samples a catastrophic defect type with the given relative weights
/// (breakdown : short : open) from exactly one uniform draw of `stream` (an
/// Rng or a CounterStream). Exposed for tests. Inline: the MC injection
/// loops make one classification draw per injected fault, in sequence with
/// the per-cell draws.
template <typename Stream>
CatastrophicDefect sample_catastrophic_defect(Stream& stream) {
  const double u = stream.uniform01();
  if (u < kBreakdownWeight) return CatastrophicDefect::kDielectricBreakdown;
  if (u < kBreakdownWeight + kShortWeight) {
    return CatastrophicDefect::kElectrodeShort;
  }
  return CatastrophicDefect::kOpenConnection;
}

/// Largest mean sample_poisson accepts. A sample costs about `mean` draws,
/// and the count must stay far inside int32 for the loop to be defined.
inline constexpr double kMaxPoissonMean = 1e6;

/// Poisson sampler on an Rng or a CounterStream — exposed for tests.
/// Knuth's product method for means up to 700 (draw sequence frozen by the
/// draw-contract pin); above that, the e^-mean limit underflows, so the
/// exponent is folded into the uniform product in representable chunks
/// instead of being biased to ~750. Requires 0 <= mean <= kMaxPoissonMean.
template <typename Stream>
std::int32_t sample_poisson(double mean, Stream& stream) {
  DMFB_EXPECTS(mean >= 0.0 && mean <= kMaxPoissonMean);
  // exp(-700) is still a normal double, with plenty of margin to the ~745
  // underflow edge; it is also the chunk size of the exponent folding.
  constexpr double kDirectMeanLimit = 700.0;
  if (mean == 0.0) return 0;
  if (mean <= kDirectMeanLimit) {
    const double limit = std::exp(-mean);
    std::int32_t k = 0;
    double product = 1.0;
    do {
      ++k;
      product *= stream.uniform01();
    } while (product > limit);
    return k - 1;
  }
  // Stop at the first k + 1 draws with u_1 ... u_{k+1} * e^mean < 1: the
  // same stopping rule as above, in a range a double can represent.
  std::int32_t k = 0;
  double product = 1.0;
  double pending_exponent = mean;
  for (;;) {
    product *= stream.uniform01();
    while (product < 1.0 && pending_exponent > 0.0) {
      const double step = std::min(pending_exponent, kDirectMeanLimit);
      product *= std::exp(step);
      pending_exponent -= step;
    }
    if (pending_exponent <= 0.0 && product <= 1.0) return k;
    ++k;
  }
}

/// Each cell fails independently with probability 1 - survival_p.
class BernoulliInjector {
 public:
  explicit BernoulliInjector(double survival_p);

  double survival_probability() const noexcept { return survival_p_; }

  /// Marks faulty cells on `array` (which must start healthy) and returns
  /// the fault map.
  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: geometric skip-sampling over the per-run counter stream —
  /// O(faults) draws instead of one per cell. Statistically equivalent to
  /// inject() but on a different draw trajectory (fault/kinds.hpp).
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

 private:
  double survival_p_;
};

/// Exactly `count` distinct cells fail, uniformly at random over all cells
/// (primary and spare alike) — the Fig. 13 model.
class FixedCountInjector {
 public:
  explicit FixedCountInjector(std::int32_t count);

  std::int32_t count() const noexcept { return count_; }

  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: Floyd's algorithm — O(count) draws, no index pool.
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

 private:
  std::int32_t count_;
};

/// Spatially clustered defects: spots ~ Poisson(mean_spots); each spot picks
/// a uniformly random centre cell and kills cells within `radius` hex steps
/// with probability decaying linearly from `core_kill_prob` at the centre to
/// `edge_kill_prob` at the rim.
class ClusteredInjector {
 public:
  ClusteredInjector(double mean_spots, std::int32_t radius,
                    double core_kill_prob, double edge_kill_prob);

  double mean_spots() const noexcept { return mean_spots_; }
  std::int32_t radius() const noexcept { return radius_; }
  double core_kill_prob() const noexcept { return core_kill_prob_; }
  double edge_kill_prob() const noexcept { return edge_kill_prob_; }

  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: the same spot walk driven by the counter stream.
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

  /// Expected number of cell failures per chip for an interior spot
  /// (ignoring boundary clipping) — used to calibrate fair comparisons
  /// against the Bernoulli model.
  double expected_failures_per_spot() const noexcept;

 private:
  double mean_spots_;
  std::int32_t radius_;
  double core_kill_prob_;
  double edge_kill_prob_;
};

}  // namespace dmfb::fault
