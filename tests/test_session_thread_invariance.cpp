// Thread-invariance regression for engine = auto.
//
// Session's determinism contract says an estimate depends only on
// (design, query), never on the worker count. Fig9-smoke-style queries
// under engine = auto must come back bit-identical at threads 1 and 4, and
// bit-identical to the explicit Hopcroft-Karp answers — the engine axis
// must never move an estimate.
//
// Each thread count gets its own Session over the shared design: the result
// cache deliberately ignores `threads` (it never affects the estimate — the
// very contract under test), so re-asking one session would compare a
// cached value against itself.
#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;

TEST(SessionThreadInvariance, AutoEngineBitIdenticalAcrossThreadCounts) {
  // The fig9_smoke grid, thinned: every design, the 120-primary column,
  // survival probabilities spanning the sweep.
  constexpr DtmbKind kKinds[] = {DtmbKind::kDtmb2_6, DtmbKind::kDtmb3_6,
                                 DtmbKind::kDtmb4_4};
  constexpr double kSurvival[] = {0.80, 0.92, 0.99};
  for (const DtmbKind kind : kKinds) {
    const auto design =
        ChipDesign::make(biochip::make_dtmb_array_with_primaries(kind, 120));
    Session serial_session(design);
    Session threaded_session(design);
    for (const double p : kSurvival) {
      YieldQuery query;
      query.fault = FaultModel::bernoulli(p);
      query.runs = 200;
      query.engine = graph::MatchingEngine::kAuto;

      query.threads = 1;
      const YieldEstimate serial = serial_session.run(query);
      query.threads = 4;
      const YieldEstimate threaded = threaded_session.run(query);
      EXPECT_EQ(serial.successes, threaded.successes)
          << "kind=" << static_cast<int>(kind) << " p=" << p;
      EXPECT_EQ(serial.runs, threaded.runs);
      EXPECT_EQ(serial.value, threaded.value);

      // The engine axis is run-time only: auto == explicit Hopcroft-Karp.
      query.engine = graph::MatchingEngine::kHopcroftKarp;
      query.threads = 1;
      const YieldEstimate reference = serial_session.run(query);
      EXPECT_EQ(serial.successes, reference.successes)
          << "kind=" << static_cast<int>(kind) << " p=" << p;
    }
  }
}

TEST(SessionThreadInvariance, AdaptiveAutoEngineStopsIdentically) {
  // Adaptive stopping interacts with worker scratch reuse across chunks;
  // the realised run count must still be scheduling-independent.
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 120));
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.95);
  query.runs = 8192;
  query.target_ci_half_width = 0.02;
  query.engine = graph::MatchingEngine::kAuto;

  query.threads = 1;
  const YieldEstimate serial = Session(design).run(query);
  query.threads = 4;
  const YieldEstimate threaded = Session(design).run(query);
  EXPECT_EQ(serial.runs, threaded.runs);
  EXPECT_EQ(serial.successes, threaded.successes);
  EXPECT_EQ(serial.value, threaded.value);
}

}  // namespace
}  // namespace dmfb::sim
