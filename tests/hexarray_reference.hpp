// Serial HexArray reference for the sim-layer equivalence suites: the
// Monte-Carlo loop sim::Session must reproduce success-for-success. Run i
// draws from sim::run_stream(seed, i), injects with a fault::*Injector on a
// mutable HexArray, asks LocalReconfigurer::feasible and resets the array —
// no FaultState, no matching skeletons, no worker threads.
#pragma once

#include <cstdint>

#include "biochip/hex_array.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {

/// Estimate of `query` (runs, seed, policy, engine, pool; fault and
/// threads are ignored) with `injector` supplying each run's faults.
/// `array` must arrive healthy and is left healthy.
template <typename Injector>
YieldEstimate hexarray_reference(biochip::HexArray& array,
                                 const Injector& injector,
                                 const YieldQuery& query) {
  const reconfig::LocalReconfigurer reconfigurer(query.policy, query.engine,
                                                 query.pool);
  std::int64_t successes = 0;
  for (std::int32_t run = 0; run < query.runs; ++run) {
    Rng rng = run_stream(query.seed, run);
    injector.inject(array, rng);
    if (reconfigurer.feasible(array)) ++successes;
    array.reset_health();
  }
  return YieldEstimate::from_counts(successes, query.runs);
}

}  // namespace dmfb::sim
