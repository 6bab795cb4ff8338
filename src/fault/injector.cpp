#include "fault/injector.hpp"

#include "common/contracts.hpp"
#include "fault/kinds.hpp"

namespace dmfb::fault {

BernoulliInjector::BernoulliInjector(double survival_p)
    : survival_p_(survival_p) {
  DMFB_EXPECTS(survival_p >= 0.0 && survival_p <= 1.0);
}

FaultMap BernoulliInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return record_faults(*this, array, rng);
}

FaultMap BernoulliInjector::inject_v2(biochip::HexArray& array,
                                      CounterStream& stream) const {
  return record_faults(*this, array, stream);
}

FixedCountInjector::FixedCountInjector(std::int32_t count) : count_(count) {
  DMFB_EXPECTS(count >= 0);
}

FaultMap FixedCountInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return record_faults(*this, array, rng);
}

FaultMap FixedCountInjector::inject_v2(biochip::HexArray& array,
                                       CounterStream& stream) const {
  return record_faults(*this, array, stream);
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
  return record_faults(*this, array, rng);
}

FaultMap ClusteredInjector::inject_v2(biochip::HexArray& array,
                                      CounterStream& stream) const {
  return record_faults(*this, array, stream);
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
