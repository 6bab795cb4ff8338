#include "core/defect_tolerant_biochip.hpp"

#include "biochip/redundancy.hpp"

namespace dmfb::core {

DefectTolerantBiochip::DefectTolerantBiochip(biochip::DtmbKind kind,
                                             std::int32_t width,
                                             std::int32_t height)
    : array_(biochip::make_dtmb_array(kind, width, height)), kind_(kind) {}

DefectTolerantBiochip::DefectTolerantBiochip(biochip::HexArray array)
    : array_(std::move(array)) {}

double DefectTolerantBiochip::redundancy_ratio() const {
  return biochip::measured_redundancy_ratio(array_);
}

void DefectTolerantBiochip::heal() { array_.reset_health(); }

fault::FaultMap DefectTolerantBiochip::inject(const sim::FaultModel& model,
                                              Rng& rng) {
  return sim::inject(model, array_, rng);
}

testplan::TestSessionResult DefectTolerantBiochip::test_chip(
    hex::CellIndex source) const {
  return testplan::run_test_session(array_, source);
}

reconfig::ReconfigPlan DefectTolerantBiochip::reconfigure(
    reconfig::CoveragePolicy policy) const {
  return reconfig::LocalReconfigurer(policy).plan(array_);
}

bool DefectTolerantBiochip::repairable(
    reconfig::CoveragePolicy policy) const {
  return reconfig::LocalReconfigurer(policy).feasible(array_);
}

sim::Session& DefectTolerantBiochip::session() {
  std::vector<hex::CellIndex> used = array_.used_cells();
  if (!session_ || used != session_usage_) {
    // Snapshot a healed *copy*: the session needs a healthy design, but an
    // accessor must not wipe the chip's live fault state as a side effect.
    biochip::HexArray snapshot = array_;
    snapshot.reset_health();
    session_ = std::make_unique<sim::Session>(snapshot);
    session_usage_ = std::move(used);
  }
  return *session_;
}

sim::YieldEstimate DefectTolerantBiochip::estimate_yield(
    const sim::YieldQuery& query) {
  heal();
  return session().run(query);
}

}  // namespace dmfb::core
