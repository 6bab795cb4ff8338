#include "sim/lockstep_bernoulli.hpp"

#include <bit>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace dmfb::sim {

namespace {

#if defined(__x86_64__)
[[gnu::target("avx512f")]] void candidates_avx512f(std::uint64_t* state,
                                                   std::int32_t draws,
                                                   std::uint64_t threshold,
                                                   std::uint64_t* masks) {
  lockstep_candidates<8>(state, draws, threshold, masks);
}

[[gnu::target("avx2")]] void candidates_avx2(std::uint64_t* state,
                                             std::int32_t draws,
                                             std::uint64_t threshold,
                                             std::uint64_t* masks) {
  lockstep_candidates<4>(state, draws, threshold, masks);
}

std::vector<LockstepKernel> detect_kernels() {
  __builtin_cpu_init();
  std::vector<LockstepKernel> kernels;
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({8, "avx512f", &candidates_avx512f});
  }
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({4, "avx2", &candidates_avx2});
  }
  return kernels;
}
#else
std::vector<LockstepKernel> detect_kernels() { return {}; }
#endif

}  // namespace

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

LockstepBernoulli::LockstepBernoulli(const LockstepKernel& kernel,
                                     std::int32_t cell_count,
                                     double fault_prob)
    : kernel_(kernel),
      cell_count_(cell_count),
      words_((cell_count + 63) / 64),
      fault_prob_(fault_prob),
      threshold_(bernoulli_threshold(fault_prob)) {
  DMFB_EXPECTS(kernel.lanes > 0 && kernel.lanes <= kMaxLockstepLanes);
  DMFB_EXPECTS(kernel.candidates != nullptr);
  DMFB_EXPECTS(cell_count > 0);
  DMFB_EXPECTS(fault_prob > 0.0 && fault_prob < 1.0);
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

Rng LockstepBernoulli::inject(std::int32_t lane, FaultState& state) const {
  DMFB_EXPECTS(lane >= 0 && lane < kernel_.lanes);
  DMFB_EXPECTS(state.faulty_count() == 0);
  DMFB_EXPECTS(state.design().cell_count() == cell_count_);
  const auto lanes = static_cast<std::size_t>(kernel_.lanes);
  const auto k = static_cast<std::size_t>(lane);
  const std::uint64_t* masks =
      masks_.data() + k * static_cast<std::size_t>(words_);

  // Hits among the phase-A draws. A hit's classification draw is the next
  // one, so its candidate bit is cleared; `owed` carries that clearing
  // across a word boundary.
  std::int32_t hits = 0;
  std::int32_t last_hit = -1;
  std::uint64_t owed = 0;
  for (std::int32_t w = 0; w < words_; ++w) {
    std::uint64_t bits = masks[w] & ~owed;
    owed = 0;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      last_hit = w * 64 + b;
      state.set_faulty_ascending(last_hit - hits);
      ++hits;
      bits &= ~(std::uint64_t{3} << b);
      owed = b == 63 ? 1 : 0;
    }
  }

  std::array<std::uint64_t, 4> words{};
  for (std::size_t i = 0; i < 4; ++i) words[i] = state_[i * lanes + k];
  Rng rng = Rng::from_state(words);
  // Phase A reached cell_count - hits cells, plus one when its last draw was
  // a hit whose classification draw is still owed.
  const bool classification_owed = last_hit == cell_count_ - 1;
  if (classification_owed) (void)rng();
  const std::int32_t reached =
      cell_count_ - hits + (classification_owed ? 1 : 0);
  std::int32_t classifications = hits;
  bernoulli_trials(rng, cell_count_ - reached, fault_prob_,
                   [&](std::int32_t index, Rng& draws) {
                     (void)draws();
                     ++classifications;
                     state.set_faulty_ascending(reached + index);
                   });

  if (obs::enabled()) {
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, state.faulty_count());
    obs::count(obs::Metric::kInjectCellTrials, cell_count_);
    obs::count(obs::Metric::kInjectClassificationDraws, classifications);
  }
  return rng;
}

}  // namespace dmfb::sim
