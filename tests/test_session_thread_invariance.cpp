// Thread-invariance regression for engine = auto.
//
// Session's determinism contract says an estimate depends only on
// (design, query), never on the worker count. Fig9-smoke-style queries
// asked with the `auto` engine token (the one the serve benchmark sends)
// must come back bit-identical at threads 1 and 4, and bit-identical to
// the `hopcroft_karp` answers — both tokens name the one matching
// algorithm.
//
// Each thread count gets its own Session over the shared design: the result
// cache deliberately ignores `threads` (it never affects the estimate — the
// very contract under test), so re-asking one session would compare a
// cached value against itself.
#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "campaign/spec.hpp"
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
      query.engine = *campaign::parse_engine("auto");

      query.threads = 1;
      const YieldEstimate serial = serial_session.run(query);
      query.threads = 4;
      const YieldEstimate threaded = threaded_session.run(query);
      EXPECT_EQ(serial.successes, threaded.successes)
          << "kind=" << static_cast<int>(kind) << " p=" << p;
      EXPECT_EQ(serial.runs, threaded.runs);
      EXPECT_EQ(serial.value, threaded.value);

      // auto == explicit Hopcroft-Karp, recomputed by a fresh session.
      query.engine = *campaign::parse_engine("hopcroft_karp");
      query.threads = 1;
      const YieldEstimate reference = Session(design).run(query);
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
  query.engine = *campaign::parse_engine("auto");

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
