// Differential fuzz: the lock-step v1 Bernoulli kernel against scalar
// sim::inject. Every lane of every batch must fault the same cells, in the
// same order, and leave its stream where the scalar loop leaves it. Each
// case runs the generic template (4 and 8 lanes, at the default ISA) on any
// host, plus every ISA build this CPU supports.
//
// The cases cover the kernel's edge cases: cell counts on both sides of
// the 64-draw mask words (1, 63, 64, 65, 127, 128, 129, 320), fault
// probabilities from 1e-9 to 1 - 1e-9, a hit on the last phase-A draw (its
// classification draw is owed to the scalar finish), runs of consecutive
// candidates (a candidate right after a hit is that hit's classification
// draw), a hit on bit 63 whose classification draw is bit 0 of the next
// word, and Session ranges whose run count no lane width divides.
#include <array>
#include <cstdint>
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
  std::int64_t hit_on_last_draw = 0;
  std::int64_t consecutive_candidates = 0;
  std::int64_t candidate_classification_draw = 0;
  std::int64_t owed_across_word = 0;
};

/// Replays a run's first `cells` draws as the scalar loop consumes them and
/// records which edge cases they hit.
void note_coverage(Rng rng, std::int32_t cells, std::uint64_t threshold,
                   Coverage& coverage) {
  bool previous_hit = false;
  bool previous_candidate = false;
  bool hit_on_last = false;
  bool consecutive = false;
  bool classification = false;
  bool across_word = false;
  for (std::int32_t j = 0; j < cells; ++j) {
    const bool candidate = rng() < threshold;
    const bool hit = candidate && !previous_hit;
    consecutive |= candidate && previous_candidate;
    classification |= candidate && previous_hit;
    across_word |= candidate && previous_hit && j % 64 == 0;
    hit_on_last |= hit && j == cells - 1;
    previous_hit = hit;
    previous_candidate = candidate;
  }
  ++coverage.runs;
  coverage.hit_on_last_draw += hit_on_last ? 1 : 0;
  coverage.consecutive_candidates += consecutive ? 1 : 0;
  coverage.candidate_classification_draw += classification ? 1 : 0;
  coverage.owed_across_word += across_word ? 1 : 0;
}

/// Runs `batches` lock-step batches of (seed, first_run ...) through
/// `kernel` and checks every lane against scalar sim::inject.
void expect_lanes_match_scalar(const LockstepKernel& kernel,
                               std::int32_t cells, double fault_prob,
                               std::uint64_t seed, std::int32_t batches,
                               Coverage& coverage) {
  const auto design = row_design(cells);
  // The model's survival p, and back: the double the scalar core receives.
  const FaultModel model = FaultModel::bernoulli(1.0 - fault_prob);
  const double q = 1.0 - model.param;
  FaultState lockstep_state(design);
  FaultState scalar_state(design);
  LockstepBernoulli batch(kernel, cells, q);
  for (std::int32_t b = 0; b < batches; ++b) {
    const std::int32_t first = b * batch.lanes();
    for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
      batch.load(lane, run_stream(seed, first + lane));
    }
    batch.draw();
    for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
      const std::int32_t run = first + lane;
      const std::string where = std::string(kernel.isa) + " lanes=" +
                                std::to_string(kernel.lanes) +
                                " cells=" + std::to_string(cells) +
                                " q=" + std::to_string(q) +
                                " run=" + std::to_string(run);
      Rng scalar = run_stream(seed, run);
      note_coverage(scalar, cells, bernoulli_threshold(q), coverage);
      inject(model, scalar_state, scalar);
      const Rng lockstep = batch.inject(lane, lockstep_state);

      const std::vector<CellIndex> expected(
          scalar_state.faulty_cells().begin(),
          scalar_state.faulty_cells().end());
      const std::vector<CellIndex> actual(
          lockstep_state.faulty_cells().begin(),
          lockstep_state.faulty_cells().end());
      ASSERT_EQ(actual, expected) << where;
      ASSERT_EQ(lockstep.state(), scalar.state()) << where;
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

void expect_kernel_matches_scalar(const LockstepKernel& kernel) {
  Coverage coverage;
  for (const std::int32_t cells : kCellCounts) {
    for (const double fault_prob : kFaultProbs) {
      for (const std::uint64_t seed : {0xD0E5A11ULL, 7ULL}) {
        expect_lanes_match_scalar(kernel, cells, fault_prob, seed,
                                  /*batches=*/16, coverage);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The corpus really reached the edge cases it exists for.
  EXPECT_GT(coverage.hit_on_last_draw, 0) << kernel.isa;
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

TEST(LockstepBernoulli, SupportedKernelsAreWidestFirst) {
  const auto kernels = supported_lockstep_kernels();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_GT(kernels[i].lanes, 0);
    EXPECT_LE(kernels[i].lanes, kMaxLockstepLanes);
    EXPECT_NE(kernels[i].candidates, nullptr);
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
    if (state.repairable(query.policy, query.engine, query.pool)) ++successes;
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
