// Facade over the full defect-tolerance flow:
//   design -> fault injection -> test/diagnosis -> local reconfiguration ->
//   yield estimation.
//
// This is the one-object entry point a downstream user needs for the common
// cases; the underlying subsystems stay available for fine-grained control.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "biochip/dtmb.hpp"
#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"
#include "testplan/stimulus_test.hpp"

namespace dmfb::core {

class DefectTolerantBiochip {
 public:
  /// Builds a `kind`-patterned width x height chip.
  DefectTolerantBiochip(biochip::DtmbKind kind, std::int32_t width,
                        std::int32_t height);

  /// Wraps an existing array (e.g. the multiplexed diagnostics chip).
  explicit DefectTolerantBiochip(biochip::HexArray array);

  biochip::HexArray& array() noexcept { return array_; }
  const biochip::HexArray& array() const noexcept { return array_; }

  /// Design kind when constructed from a pattern.
  std::optional<biochip::DtmbKind> kind() const noexcept { return kind_; }

  /// Measured redundancy ratio of this chip.
  double redundancy_ratio() const;

  // -- fault handling -------------------------------------------------------
  /// Clears all faults.
  void heal();

  /// Injects one v1 draw of `model` into the chip, which must be healthy
  /// (heal() first), and returns the faults with their classifications and
  /// attributions (sim::inject on a HexArray).
  fault::FaultMap inject(const sim::FaultModel& model, Rng& rng);

  /// Runs the stimulus-droplet test session from cell 0 (or a chosen
  /// source) and returns the faults it localises.
  testplan::TestSessionResult test_chip(hex::CellIndex source = 0) const;

  // -- reconfiguration ------------------------------------------------------
  /// Computes the spare-assignment plan for the current fault state.
  reconfig::ReconfigPlan reconfigure(
      reconfig::CoveragePolicy policy =
          reconfig::CoveragePolicy::kAllFaultyPrimaries) const;

  /// True iff the current fault state is repairable.
  bool repairable(reconfig::CoveragePolicy policy =
                      reconfig::CoveragePolicy::kAllFaultyPrimaries) const;

  // -- yield ----------------------------------------------------------------
  /// The facade's reusable simulation session: a healthy snapshot of the
  /// current array (rebuilt only when cell usage changed since the last
  /// call), with query caching across estimate_yield calls.
  sim::Session& session();

  /// Monte-Carlo yield under any sim::YieldQuery (chip is healed first and
  /// left healed). Served by session(), so repeating a query costs a cache
  /// lookup.
  sim::YieldEstimate estimate_yield(const sim::YieldQuery& query);

 private:
  biochip::HexArray array_;
  std::optional<biochip::DtmbKind> kind_;
  /// Lazy session over a healthy snapshot of array_; invalidated when the
  /// array's usage marking diverges from session_usage_ (roles and shape
  /// are immutable, and yield estimation heals health anyway).
  std::unique_ptr<sim::Session> session_;
  std::vector<hex::CellIndex> session_usage_;
};

}  // namespace dmfb::core
