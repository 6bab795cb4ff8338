#include "sim/lockstep_bernoulli.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dmfb::sim {

namespace {

#if defined(__x86_64__)
// Not always_inline: GCC compiles lockstep_faults<Pext> at the default ISA
// before inlining it into a kernel, and a forced bmi2 inline there is a
// target mismatch error. The bmi2 kernels below inline it on their own.
struct Pext {
  [[gnu::target("bmi2")]] static std::uint64_t apply(
      std::uint64_t x, std::uint64_t mask) noexcept {
    return _pext_u64(x, mask);
  }
};

[[gnu::target("avx512f,bmi2")]] void candidates_avx512f(
    std::uint64_t* state, std::int32_t draws, std::uint64_t threshold,
    std::uint64_t* masks) {
  lockstep_candidates<8>(state, draws, threshold, masks);
}

[[gnu::target("avx512f,bmi2")]] LockstepRun faults_avx512f(
    const std::uint64_t* masks, std::int32_t draws, std::int32_t cell_count,
    FaultState& state) {
  return lockstep_faults<Pext>(masks, draws, cell_count, state);
}

[[gnu::target("avx2,bmi2")]] void candidates_avx2(std::uint64_t* state,
                                                  std::int32_t draws,
                                                  std::uint64_t threshold,
                                                  std::uint64_t* masks) {
  lockstep_candidates<4>(state, draws, threshold, masks);
}

[[gnu::target("avx2,bmi2")]] LockstepRun faults_avx2(
    const std::uint64_t* masks, std::int32_t draws, std::int32_t cell_count,
    FaultState& state) {
  return lockstep_faults<Pext>(masks, draws, cell_count, state);
}

std::vector<LockstepKernel> detect_kernels() {
  __builtin_cpu_init();
  std::vector<LockstepKernel> kernels;
  if (!__builtin_cpu_supports("bmi2")) return kernels;
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({8, "avx512f", &candidates_avx512f, &faults_avx512f});
  }
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({4, "avx2", &candidates_avx2, &faults_avx2});
  }
  return kernels;
}
#else
std::vector<LockstepKernel> detect_kernels() { return {}; }
#endif

}  // namespace

LockstepRun generic_lockstep_faults(const std::uint64_t* masks,
                                    std::int32_t draws,
                                    std::int32_t cell_count,
                                    FaultState& state) {
  return lockstep_faults<PortableCompress>(masks, draws, cell_count, state);
}

std::span<const LockstepKernel> supported_lockstep_kernels() {
  static const std::vector<LockstepKernel> kernels = detect_kernels();
  return kernels;
}

const LockstepKernel* lockstep_kernel_for(const FaultModel& model) {
  if (model.kind != FaultModel::Kind::kBernoulli) return nullptr;
  // The same double bernoulli_trials receives from the scalar core.
  const double fault_prob = 1.0 - model.param;
  if (!(fault_prob > 0.0 && fault_prob < 1.0)) return nullptr;
  const std::span<const LockstepKernel> kernels = supported_lockstep_kernels();
  return kernels.empty() ? nullptr : &kernels.front();
}

std::int32_t lockstep_slack(std::int32_t cell_count, double fault_prob) {
  DMFB_EXPECTS(cell_count > 0);
  DMFB_EXPECTS(fault_prob > 0.0 && fault_prob < 1.0);
  const double mean = static_cast<double>(cell_count) * fault_prob;
  const double sd = std::sqrt(mean * (1.0 - fault_prob));
  const double slack = std::ceil(mean + 3.0 * sd) + 1.0;
  return slack >= static_cast<double>(cell_count)
             ? cell_count
             : static_cast<std::int32_t>(slack);
}

LockstepBernoulli::LockstepBernoulli(const LockstepKernel& kernel,
                                     std::int32_t cell_count,
                                     double fault_prob)
    : kernel_(kernel),
      cell_count_(cell_count),
      draws_(cell_count + lockstep_slack(cell_count, fault_prob)),
      words_((draws_ + 63) / 64),
      fault_prob_(fault_prob),
      threshold_(bernoulli_threshold(fault_prob)) {
  DMFB_EXPECTS(kernel.lanes > 0 && kernel.lanes <= kMaxLockstepLanes);
  DMFB_EXPECTS(kernel.candidates != nullptr && kernel.faults != nullptr);
  masks_.assign(static_cast<std::size_t>(kernel.lanes) *
                    static_cast<std::size_t>(words_),
                0);
}

void LockstepBernoulli::load(std::int32_t lane, const Rng& stream) {
  DMFB_EXPECTS(lane >= 0 && lane < kernel_.lanes);
  const auto lanes = static_cast<std::size_t>(kernel_.lanes);
  const std::array<std::uint64_t, 4> words = stream.state();
  for (std::size_t i = 0; i < 4; ++i) {
    state_[i * lanes + static_cast<std::size_t>(lane)] = words[i];
  }
}

std::int32_t LockstepBernoulli::inject(std::int32_t lane,
                                       FaultState& state) const {
  DMFB_EXPECTS(lane >= 0 && lane < kernel_.lanes);
  DMFB_EXPECTS(state.faulty_count() == 0);
  DMFB_EXPECTS(state.design().cell_count() == cell_count_);
  const auto k = static_cast<std::size_t>(lane);
  const LockstepRun run = kernel_.faults(
      masks_.data() + k * static_cast<std::size_t>(words_), draws_,
      cell_count_, state);
  std::int32_t hits = run.hits;
  if (run.cells < cell_count_) {
    // More hits than the slack: finish on the lane's stream, which phase A
    // left at draw draws_.
    const auto lanes = static_cast<std::size_t>(kernel_.lanes);
    std::array<std::uint64_t, 4> words{};
    for (std::size_t i = 0; i < 4; ++i) words[i] = state_[i * lanes + k];
    Rng rng = Rng::from_state(words);
    if (run.classification_owed) (void)rng();
    bernoulli_trials(rng, cell_count_ - run.cells, fault_prob_,
                     [&](std::int32_t index, Rng& draws) {
                       (void)draws();
                       ++hits;
                       state.set_faulty_ascending(run.cells + index);
                     });
  }

  if (obs::enabled()) {
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, hits);
    obs::count(obs::Metric::kInjectCellTrials, cell_count_);
    obs::count(obs::Metric::kInjectClassificationDraws, hits);
  }
  return cell_count_ + hits;
}

}  // namespace dmfb::sim
