// Differential fuzz: the lock-step v1 Bernoulli kernel against scalar
// sim::inject. Every lane of every batch must fault the same cells, write
// the same fault words, and consume the draws the scalar loop consumes (its
// stream, replayed that many draws, ends where the scalar stream ends).
// Each case runs the generic template (4 and 8 lanes, at the default ISA,
// with a portable compress) on any host, plus every ISA build this CPU
// supports.
//
// The cases cover the kernel's edge cases: cell counts on both sides of
// the 64-draw mask words (1, 63, 64, 65, 127, 128, 129, 320), fault
// probabilities from 1e-9 to 1 - 1e-9, runs of consecutive candidates (a
// candidate right after a hit is that hit's classification draw), a hit on
// bit 63 whose classification draw is bit 0 of the next word, a last cell
// whose classification draw lies past phase A, and Session ranges whose
// run count no lane width divides. A seed search adds lanes whose hits
// exceed the slack, so phase A ends before their last cell and the scalar
// fallback finishes them, some owing the classification draw of a hit on
// the last phase-A draw.
#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "hexgrid/region.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/lockstep_bernoulli.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

constexpr std::int32_t kCellCounts[] = {1, 63, 64, 65, 127, 128, 129, 320};
constexpr double kFaultProbs[] = {1e-9, 0.01, 0.2, 0.5, 1.0 - 1e-9};

/// A one-row all-primary array of exactly `cells` cells.
std::shared_ptr<const ChipDesign> row_design(std::int32_t cells) {
  return ChipDesign::make(biochip::HexArray(
      hex::Region::parallelogram(cells, 1),
      [](hex::HexCoord) { return biochip::CellRole::kPrimary; }));
}

/// Which phase-A edge cases the checked runs exercised.
struct Coverage {
  std::int64_t runs = 0;
  std::int64_t consecutive_candidates = 0;
  std::int64_t candidate_classification_draw = 0;
  std::int64_t owed_across_word = 0;
  /// Phase A held every trial, but not the last hit's classification draw.
  std::int64_t classification_past_phase_a = 0;
  std::int64_t slack_exhausted = 0;   ///< the scalar fallback ran
  std::int64_t owed_at_fallback = 0;  ///< ... after a hit on the last draw
};

/// Where a run's scalar draws fall against a phase A of `phase_a` draws.
struct DrawProfile {
  std::int32_t consumed = 0;  ///< cells + hits
  bool exhausted = false;     ///< some trial lies at or past draw phase_a
  bool owed = false;          ///< exhausted, and draw phase_a - 1 was a hit
};

/// Replays a run's draws as the scalar loop consumes them and records
/// which edge cases they hit.
DrawProfile note_coverage(Rng rng, std::int32_t cells,
                          std::uint64_t threshold, std::int32_t phase_a,
                          Coverage& coverage) {
  DrawProfile profile;
  bool consecutive = false;
  bool classification = false;
  bool across_word = false;
  bool hit_on_last_draw = false;
  bool previous_candidate = false;
  for (std::int32_t cell = 0; cell < cells; ++cell) {
    profile.exhausted |= profile.consumed >= phase_a;
    const bool hit = rng() < threshold;
    consecutive |= hit && previous_candidate;
    previous_candidate = hit;
    ++profile.consumed;
    if (!hit) continue;
    hit_on_last_draw |= profile.consumed == phase_a;
    const bool candidate = rng() < threshold;
    consecutive |= candidate;
    classification |= candidate;
    across_word |= profile.consumed % 64 == 0;
    previous_candidate = candidate;
    ++profile.consumed;
  }
  profile.owed = profile.exhausted && hit_on_last_draw;
  ++coverage.runs;
  coverage.consecutive_candidates += consecutive ? 1 : 0;
  coverage.candidate_classification_draw += classification ? 1 : 0;
  coverage.owed_across_word += across_word ? 1 : 0;
  coverage.classification_past_phase_a +=
      !profile.exhausted && profile.consumed > phase_a ? 1 : 0;
  coverage.slack_exhausted += profile.exhausted ? 1 : 0;
  coverage.owed_at_fallback += profile.owed ? 1 : 0;
  return profile;
}

/// Runs the streams `runs` of (seed, run) through `kernel`, lanes() at a
/// time, and checks every lane against scalar sim::inject.
void expect_lanes_match_scalar(const LockstepKernel& kernel,
                               std::int32_t cells, double fault_prob,
                               std::uint64_t seed,
                               const std::vector<std::int32_t>& runs,
                               Coverage& coverage) {
  const auto design = row_design(cells);
  // The model's survival p, and back: the double the scalar core receives.
  const FaultModel model = FaultModel::bernoulli(1.0 - fault_prob);
  const double q = 1.0 - model.param;
  FaultState lockstep_state(design);
  FaultState scalar_state(design);
  LockstepBernoulli batch(kernel, cells, q);
  const auto lanes = static_cast<std::size_t>(batch.lanes());
  for (std::size_t first = 0; first + lanes <= runs.size(); first += lanes) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      batch.load(static_cast<std::int32_t>(lane),
                 run_stream(seed, runs[first + lane]));
    }
    batch.draw();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::int32_t run = runs[first + lane];
      const std::string where = std::string(kernel.isa) + " lanes=" +
                                std::to_string(kernel.lanes) +
                                " cells=" + std::to_string(cells) +
                                " q=" + std::to_string(q) +
                                " run=" + std::to_string(run);
      Rng scalar = run_stream(seed, run);
      const DrawProfile profile = note_coverage(
          scalar, cells, bernoulli_threshold(q), batch.draws(), coverage);
      inject(model, scalar_state, scalar);
      const std::int32_t consumed =
          batch.inject(static_cast<std::int32_t>(lane), lockstep_state);

      ASSERT_EQ(lockstep_state.faulty_cells(), scalar_state.faulty_cells())
          << where;
      ASSERT_EQ(lockstep_state.faulty_count(), scalar_state.faulty_count())
          << where;
      ASSERT_EQ(consumed, profile.consumed) << where;
      Rng replay = run_stream(seed, run);
      for (std::int32_t d = 0; d < consumed; ++d) (void)replay();
      ASSERT_EQ(replay.state(), scalar.state()) << where;
      ASSERT_EQ(lockstep_state.fault_words().size(),
                scalar_state.fault_words().size());
      for (std::size_t w = 0; w < scalar_state.fault_words().size(); ++w) {
        ASSERT_EQ(lockstep_state.fault_words()[w],
                  scalar_state.fault_words()[w])
            << where << " word " << w;
      }
      scalar_state.reset();
      lockstep_state.reset();
    }
  }
}

/// Runs 0, 1, ..., count - 1.
std::vector<std::int32_t> first_runs(std::int32_t count) {
  std::vector<std::int32_t> runs(static_cast<std::size_t>(count));
  for (std::int32_t run = 0; run < count; ++run) {
    runs[static_cast<std::size_t>(run)] = run;
  }
  return runs;
}

void expect_kernel_matches_scalar(const LockstepKernel& kernel) {
  Coverage coverage;
  for (const std::int32_t cells : kCellCounts) {
    for (const double fault_prob : kFaultProbs) {
      for (const std::uint64_t seed : {0xD0E5A11ULL, 7ULL}) {
        expect_lanes_match_scalar(kernel, cells, fault_prob, seed,
                                  first_runs(16 * kernel.lanes), coverage);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The corpus really reached the edge cases it exists for.
  EXPECT_GT(coverage.consecutive_candidates, 0) << kernel.isa;
  EXPECT_GT(coverage.candidate_classification_draw, 0) << kernel.isa;
  EXPECT_GT(coverage.owed_across_word, 0) << kernel.isa;
}

TEST(LockstepBernoulli, GenericTemplateMatchesScalarInject) {
  expect_kernel_matches_scalar(generic_lockstep_kernel<4>());
  expect_kernel_matches_scalar(generic_lockstep_kernel<8>());
}

TEST(LockstepBernoulli, EverySupportedIsaMatchesScalarInject) {
  for (const LockstepKernel& kernel : supported_lockstep_kernels()) {
    SCOPED_TRACE(kernel.isa);
    expect_kernel_matches_scalar(kernel);
  }
}

/// Cell counts and fault probabilities whose phase A is not a whole number
/// of mask words, so the last phase-A draw is not bit 63 of its word.
struct SlackCase {
  std::int32_t cells;
  double fault_prob;
};
constexpr SlackCase kSlackCases[] = {{65, 0.5}, {129, 0.2}, {320, 0.01}};

/// Seed search: the first `wanted` runs of `seed` whose scalar draws do not
/// fit a phase A of `phase_a` draws. Nearly all of them have more hits than
/// the slack; the rest hit on their last cell's trial at draw phase_a - 1.
std::vector<std::int32_t> exhausted_runs(std::int32_t cells,
                                         double fault_prob,
                                         std::uint64_t seed,
                                         std::int32_t phase_a,
                                         std::size_t wanted) {
  const std::uint64_t threshold = bernoulli_threshold(fault_prob);
  std::vector<std::int32_t> runs;
  Coverage ignored;
  for (std::int32_t run = 0; run < 1'000'000 && runs.size() < wanted;
       ++run) {
    if (note_coverage(run_stream(seed, run), cells, threshold, phase_a,
                      ignored)
            .consumed > phase_a) {
      runs.push_back(run);
    }
  }
  return runs;
}

TEST(LockstepBernoulli, SlackExhaustedLanesMatchScalarInject) {
  constexpr std::uint64_t kSeed = 0x51ACCULL;
  // 16 runs per case fill whole batches at 4 and 8 lanes.
  std::vector<std::vector<std::int32_t>> runs;
  for (const SlackCase& slack_case : kSlackCases) {
    const std::int32_t phase_a =
        slack_case.cells + lockstep_slack(slack_case.cells,
                                          slack_case.fault_prob);
    ASSERT_NE(phase_a % 64, 0);
    runs.push_back(exhausted_runs(slack_case.cells, slack_case.fault_prob,
                                  kSeed, phase_a, 16));
    ASSERT_EQ(runs.back().size(), 16u) << "cells=" << slack_case.cells;
  }
  std::vector<LockstepKernel> kernels = {generic_lockstep_kernel<4>(),
                                         generic_lockstep_kernel<8>()};
  for (const LockstepKernel& kernel : supported_lockstep_kernels()) {
    kernels.push_back(kernel);
  }
  for (const LockstepKernel& kernel : kernels) {
    Coverage coverage;
    for (std::size_t c = 0; c < std::size(kSlackCases); ++c) {
      expect_lanes_match_scalar(kernel, kSlackCases[c].cells,
                                kSlackCases[c].fault_prob, kSeed, runs[c],
                                coverage);
      if (testing::Test::HasFatalFailure()) return;
    }
    // The search reached each edge of phase A's end: fallbacks, fallbacks
    // owing the classification draw of a hit on the last phase-A draw, and
    // a last hit whose classification draw phase A did not hold.
    EXPECT_GT(coverage.slack_exhausted, 0) << kernel.isa;
    EXPECT_GT(coverage.owed_at_fallback, 0) << kernel.isa;
    EXPECT_GT(coverage.classification_past_phase_a, 0) << kernel.isa;
  }
}

TEST(LockstepBernoulli, ClassificationDrawsFollowTheSerialRecurrence) {
  Rng rng(0xC1A55ULL);
  for (std::int32_t round = 0; round < 20000; ++round) {
    // Dense, sparse and run-heavy words, plus the all-ones word.
    std::uint64_t candidates = rng();
    if (round % 4 == 1) candidates &= rng();
    if (round % 4 == 2) candidates |= rng() | (candidates << 1);
    if (round % 4 == 3 && round < 8) candidates = ~std::uint64_t{0};
    const std::uint64_t carry_in = rng() & 1;
    std::uint64_t expected = 0;
    bool previous_hit = carry_in != 0;
    for (int b = 0; b < 64; ++b) {
      if (previous_hit) expected |= std::uint64_t{1} << b;
      previous_hit = !previous_hit && ((candidates >> b) & 1) != 0;
    }
    std::uint64_t carry = carry_in;
    ASSERT_EQ(classification_draws(candidates, carry), expected)
        << std::hex << candidates << " carry " << carry_in;
    ASSERT_EQ(carry, previous_hit ? 1u : 0u) << std::hex << candidates;
  }
}

TEST(LockstepBernoulli, SlackIsBoundedByTheCellCount) {
  EXPECT_EQ(lockstep_slack(1, 0.5), 1);
  EXPECT_EQ(lockstep_slack(320, 1.0 - 1e-9), 320);
  EXPECT_EQ(lockstep_slack(320, 1e-9), 2);
  // fig9's densest point: mean 96, sd 8.76, so 96 + 26.3 rounded up, + 1.
  EXPECT_EQ(lockstep_slack(480, 0.2), 124);
  EXPECT_THROW((void)lockstep_slack(0, 0.5), ContractViolation);
  EXPECT_THROW((void)lockstep_slack(64, 0.0), ContractViolation);
  EXPECT_THROW((void)lockstep_slack(64, 1.0), ContractViolation);
}

TEST(LockstepBernoulli, SupportedKernelsAreWidestFirst) {
  const auto kernels = supported_lockstep_kernels();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_GT(kernels[i].lanes, 0);
    EXPECT_LE(kernels[i].lanes, kMaxLockstepLanes);
    EXPECT_NE(kernels[i].candidates, nullptr);
    EXPECT_NE(kernels[i].faults, nullptr);
    if (i > 0) {
      EXPECT_LT(kernels[i].lanes, kernels[i - 1].lanes);
    }
  }
}

TEST(LockstepBernoulli, OnlyStandaloneBernoulliStrictlyInsideTakesTheKernel) {
  const auto kernels = supported_lockstep_kernels();
  const LockstepKernel* widest = kernels.empty() ? nullptr : &kernels.front();
  EXPECT_EQ(lockstep_kernel_for(FaultModel::bernoulli(0.9)), widest);
  EXPECT_EQ(lockstep_kernel_for(FaultModel::bernoulli(1e-9)), widest);
  // q = 1 - p must lie strictly inside (0, 1): bernoulli_trials draws
  // nothing at q = 0 and hits every cell without a draw at q = 1.
  EXPECT_EQ(lockstep_kernel_for(FaultModel::bernoulli(1.0)), nullptr);
  EXPECT_EQ(lockstep_kernel_for(FaultModel::bernoulli(0.0)), nullptr);
  EXPECT_EQ(lockstep_kernel_for(FaultModel::bernoulli(1e-300)), nullptr);
  EXPECT_EQ(lockstep_kernel_for(FaultModel::fixed_count(3)), nullptr);
  EXPECT_EQ(lockstep_kernel_for(FaultModel::mixture(
                {FaultModel::bernoulli(0.9), FaultModel::fixed_count(1)})),
            nullptr);
}

TEST(LockstepBernoulli, CountersMatchScalarInject) {
  const auto design = row_design(129);
  const FaultModel model = FaultModel::bernoulli(0.8);
  const auto snapshot_of = [&](bool lockstep) {
    obs::Registry registry;
    registry.install();
    FaultState state(design);
    LockstepBernoulli batch(generic_lockstep_kernel<4>(), 129,
                            1.0 - model.param);
    for (std::int32_t first = 0; first < 64; first += batch.lanes()) {
      if (lockstep) {
        for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
          batch.load(lane, run_stream(11, first + lane));
        }
        batch.draw();
      }
      for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
        if (lockstep) {
          (void)batch.inject(lane, state);
        } else {
          Rng rng = run_stream(11, first + lane);
          inject(model, state, rng);
        }
        state.reset();
      }
    }
    registry.uninstall();
    return registry.snapshot();
  };
  const obs::Snapshot scalar = snapshot_of(false);
  const obs::Snapshot lockstep = snapshot_of(true);
  for (const obs::Metric metric :
       {obs::Metric::kInjectRuns, obs::Metric::kInjectCellsFaulted,
        obs::Metric::kInjectCellTrials,
        obs::Metric::kInjectClassificationDraws}) {
    EXPECT_EQ(lockstep.counter(metric), scalar.counter(metric))
        << obs::info(metric).name;
  }
  EXPECT_EQ(lockstep.counter(obs::Metric::kInjectRuns), 64);
  EXPECT_EQ(lockstep.counter(obs::Metric::kInjectCellTrials), 64 * 129);
  EXPECT_EQ(lockstep.counter(obs::Metric::kInjectClassificationDraws),
            lockstep.counter(obs::Metric::kInjectCellsFaulted));
}

/// Successes of runs [0, runs) of `query`, one scalar run at a time.
std::int64_t scalar_successes(const std::shared_ptr<const ChipDesign>& design,
                              const YieldQuery& query) {
  FaultState state(design);
  std::int64_t successes = 0;
  for (std::int32_t run = 0; run < query.runs; ++run) {
    Rng rng = run_stream(query.seed, run);
    inject(query.fault, state, rng);
    if (state.repairable(query.policy, query.pool)) ++successes;
    state.reset();
  }
  return successes;
}

TEST(LockstepBernoulli, SessionRangesNoLaneWidthDividesMatchScalarRuns) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6, 75));
  Session session(design);
  for (const double p : {0.85, 0.93}) {
    // 203 = 3 x 64 + 11 and 1029 = 1024 + 5 (an adaptive chunk plus a tail):
    // every worker batch ends in a scalar tail at 4 and 8 lanes alike.
    for (const std::int32_t runs : {203, 1029}) {
      for (const std::int32_t threads : {1, 3}) {
        YieldQuery query;
        query.fault = FaultModel::bernoulli(p);
        query.runs = runs;
        query.seed = std::uint64_t{0x5EED} + static_cast<std::uint64_t>(runs);
        query.threads = threads;
        EXPECT_EQ(session.run(query).successes,
                  scalar_successes(design, query))
            << "p=" << p << " runs=" << runs << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace dmfb::sim
