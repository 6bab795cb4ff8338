// Serial HexArray reference for the sim-layer equivalence suites: the
// Monte-Carlo loop sim::Session must reproduce success-for-success. Run i
// draws from sim::run_stream(seed, i), injects query.fault into a mutable
// HexArray (sim::inject's record path), asks LocalReconfigurer::feasible and
// resets the array — no FaultState, no cell-space repair, no worker
// threads. LocalReconfigurer's verdict is the independent oracle for
// FaultState::repairable.
#pragma once

#include <cstdint>

#include "biochip/hex_array.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {

/// Estimate of `query` (fault, runs, seed, policy, engine, pool; threads
/// are ignored). `array` must arrive healthy and is left healthy.
inline YieldEstimate hexarray_reference(biochip::HexArray& array,
                                        const YieldQuery& query) {
  const reconfig::LocalReconfigurer reconfigurer(query.policy, query.engine,
                                                 query.pool);
  std::int64_t successes = 0;
  for (std::int32_t run = 0; run < query.runs; ++run) {
    Rng rng = run_stream(query.seed, run);
    inject(query.fault, array, rng);
    if (reconfigurer.feasible(array)) ++successes;
    array.reset_health();
  }
  return YieldEstimate::from_counts(successes, query.runs);
}

}  // namespace dmfb::sim
