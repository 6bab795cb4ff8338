// Draw-level samplers of the Monte-Carlo defect models.
//
// Each sampler runs on an Rng (v1 serial contract) or a CounterStream (v2
// counter contract; common/rng.hpp) and consumes a documented, frozen draw
// sequence: the injection cores in sim/fault_model.cpp compose them, and
// the draw-contract pin in tests/test_sim_fault_models.cpp holds every
// sequence fixed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

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

/// Floyd's algorithm: exactly `count` distinct cells from [0, cells), one
/// uniform_below draw per pick (Lemire rejections advance the cursor
/// deterministically) and no O(cells) index pool. Membership is a linear
/// scan over the picks so far (count is small in every supported query; an
/// unordered set would also trip the determinism linter).
template <typename OnPick>
void fixed_count_v2(CounterStream& stream, std::int32_t cells,
                    std::int32_t count, OnPick&& on_pick) {
  DMFB_EXPECTS(count >= 0 && count <= cells);
  std::vector<std::int32_t> chosen;
  chosen.reserve(static_cast<std::size_t>(count));
  for (std::int32_t j = cells - count; j < cells; ++j) {
    const auto t = static_cast<std::int32_t>(
        stream.uniform_below(static_cast<std::uint64_t>(j) + 1));
    bool duplicate = false;
    for (const std::int32_t c : chosen) duplicate |= (c == t);
    const std::int32_t pick = duplicate ? j : t;
    chosen.push_back(pick);
    on_pick(pick);
  }
}

}  // namespace dmfb::fault
