#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "fault/inject_v2.hpp"
#include "hexgrid/hex_coord.hpp"

namespace dmfb::fault {

namespace {

/// Largest mean handled by Knuth's direct product method (and the chunk
/// size of the large-mean exponent folding): exp(-700) is still a normal
/// double, with plenty of margin to the ~745 underflow edge.
constexpr double kPoissonDirectMeanLimit = 700.0;

FaultRecord make_catastrophic_record(hex::CellIndex cell, Rng& rng) {
  FaultRecord record;
  record.cell = cell;
  record.fault_class = FaultClass::kCatastrophic;
  record.catastrophic = sample_catastrophic_defect(rng);
  return record;
}

FaultRecord make_catastrophic_record_v2(hex::CellIndex cell,
                                        CounterStream& stream) {
  FaultRecord record;
  record.cell = cell;
  record.fault_class = FaultClass::kCatastrophic;
  record.catastrophic = sample_catastrophic_defect(stream);
  return record;
}

}  // namespace

BernoulliInjector::BernoulliInjector(double survival_p)
    : survival_p_(survival_p) {
  DMFB_EXPECTS(survival_p >= 0.0 && survival_p <= 1.0);
}

FaultMap BernoulliInjector::inject(biochip::HexArray& array, Rng& rng) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  bernoulli_trials(rng, array.cell_count(), 1.0 - survival_p_,
                   [&](std::int32_t cell, Rng& draws) {
                     array.set_health(cell, biochip::CellHealth::kFaulty);
                     map.records.push_back(
                         make_catastrophic_record(cell, draws));
                   });
  return map;
}

FaultMap BernoulliInjector::inject_v2(biochip::HexArray& array,
                                      CounterStream& stream) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  skip_sample_bernoulli(stream, array.cell_count(), 1.0 - survival_p_,
                        [&](std::int32_t cell) {
                          array.set_health(cell, biochip::CellHealth::kFaulty);
                          map.records.push_back(
                              make_catastrophic_record_v2(cell, stream));
                        });
  return map;
}

FixedCountInjector::FixedCountInjector(std::int32_t count) : count_(count) {
  DMFB_EXPECTS(count >= 0);
}

FaultMap FixedCountInjector::inject(biochip::HexArray& array, Rng& rng) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  DMFB_EXPECTS(count_ <= array.cell_count());
  FaultMap map;
  for (const std::int32_t cell :
       rng.sample_without_replacement(array.cell_count(), count_)) {
    array.set_health(cell, biochip::CellHealth::kFaulty);
    map.records.push_back(make_catastrophic_record(cell, rng));
  }
  return map;
}

FaultMap FixedCountInjector::inject_v2(biochip::HexArray& array,
                                       CounterStream& stream) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  DMFB_EXPECTS(count_ <= array.cell_count());
  FaultMap map;
  fixed_count_v2(stream, array.cell_count(), count_,
                 [&](std::int32_t cell) {
                   array.set_health(cell, biochip::CellHealth::kFaulty);
                   map.records.push_back(
                       make_catastrophic_record_v2(cell, stream));
                 });
  return map;
}

std::int32_t sample_poisson(double mean, Rng& rng) {
  DMFB_EXPECTS(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean <= kPoissonDirectMeanLimit) {
    // Knuth's product method, exactly as originally shipped: the equivalence
    // suite pins this draw sequence bit-for-bit for small means, so the
    // small-mean branch must never change.
    const double limit = std::exp(-mean);
    std::int32_t k = 0;
    double product = 1.0;
    do {
      ++k;
      product *= rng.uniform01();
    } while (product > limit);
    return k - 1;
  }
  // Large means: exp(-mean) underflows to 0 past mean ~ 745, so the direct
  // limit comparison only terminates once the uniform product itself
  // underflows (~750 iterations) — a heavily biased sample. Fold e^mean
  // into the product in chunks instead: stop at the first k + 1 draws with
  // u_1 ... u_{k+1} * e^mean < 1, which is the same stopping rule in a
  // range the floating-point format can represent.
  std::int32_t k = 0;
  double product = 1.0;
  double pending_exponent = mean;
  for (;;) {
    product *= rng.uniform01();
    while (product < 1.0 && pending_exponent > 0.0) {
      const double step =
          std::min(pending_exponent, kPoissonDirectMeanLimit);
      product *= std::exp(step);
      pending_exponent -= step;
    }
    if (pending_exponent <= 0.0 && product <= 1.0) return k;
    ++k;
  }
}

ClusteredInjector::ClusteredInjector(double mean_spots, std::int32_t radius,
                                     double core_kill_prob,
                                     double edge_kill_prob)
    : mean_spots_(mean_spots),
      radius_(radius),
      core_kill_prob_(core_kill_prob),
      edge_kill_prob_(edge_kill_prob) {
  DMFB_EXPECTS(mean_spots >= 0.0);
  DMFB_EXPECTS(radius >= 0);
  DMFB_EXPECTS(core_kill_prob >= 0.0 && core_kill_prob <= 1.0);
  DMFB_EXPECTS(edge_kill_prob >= 0.0 && edge_kill_prob <= core_kill_prob);
}

FaultMap ClusteredInjector::inject(biochip::HexArray& array, Rng& rng) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  const std::int32_t spots = sample_poisson(mean_spots_, rng);
  for (std::int32_t spot = 0; spot < spots; ++spot) {
    const auto center_index = static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
    const hex::HexCoord center = array.region().coord_at(center_index);
    for (const hex::HexCoord at : hex::disk(center, radius_)) {
      const hex::CellIndex cell = array.region().index_of(at);
      if (cell == hex::kInvalidCell) continue;  // spot clipped by boundary
      if (array.health(cell) == biochip::CellHealth::kFaulty) continue;
      const double t =
          radius_ == 0 ? 0.0
                       : static_cast<double>(hex::distance(center, at)) /
                             static_cast<double>(radius_);
      const double kill_prob =
          core_kill_prob_ + (edge_kill_prob_ - core_kill_prob_) * t;
      if (rng.bernoulli(kill_prob)) {
        array.set_health(cell, biochip::CellHealth::kFaulty);
        map.records.push_back(make_catastrophic_record(cell, rng));
      }
    }
  }
  return map;
}

FaultMap ClusteredInjector::inject_v2(biochip::HexArray& array,
                                      CounterStream& stream) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  clustered_v2(
      stream, array.region(), array.cell_count(), mean_spots_, radius_,
      core_kill_prob_, edge_kill_prob_,
      [&](hex::CellIndex cell) {
        return array.health(cell) == biochip::CellHealth::kFaulty;
      },
      [&](hex::CellIndex cell) {
        array.set_health(cell, biochip::CellHealth::kFaulty);
        map.records.push_back(make_catastrophic_record_v2(cell, stream));
      });
  return map;
}

double ClusteredInjector::expected_failures_per_spot() const noexcept {
  // Sum of kill probability over the rings of an interior disk.
  double expected = core_kill_prob_;  // ring 0 (the centre)
  for (std::int32_t d = 1; d <= radius_; ++d) {
    const double t = static_cast<double>(d) / static_cast<double>(radius_);
    const double kill_prob =
        core_kill_prob_ + (edge_kill_prob_ - core_kill_prob_) * t;
    expected += 6.0 * d * kill_prob;
  }
  return expected;
}

}  // namespace dmfb::fault
