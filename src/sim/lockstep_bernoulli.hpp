// sim::LockstepBernoulli — v1 Bernoulli injection for several runs at once.
//
// The v1 contract (common/rng.hpp) makes one xoshiro256** trial draw per
// cell, plus one classification draw after each hit, on the run's serial
// stream. A draw's cost is instruction throughput, not latency: the step's
// loop-carried chain is two operations long. So the gain comes from
// advancing L independent runs' streams in the L lanes of one vector, never
// from reordering the draws of one run.
//
//  * Phase A (lockstep_candidates, SIMD): exactly cell_count draws per
//    lane. Bit j of a lane's candidate mask says its draw j fell below
//    bernoulli_threshold(q). xoshiro's *5, *9 and rotates are shifts, adds
//    and ors, so no 64-bit vector multiply is needed.
//  * Phase B (LockstepBernoulli::inject, scalar, one lane at a time in run
//    order): a candidate at draw j is a hit unless draw j - 1 was a hit, in
//    which case j is that hit's classification draw. A hit's cell is j minus
//    the hits before it. The ~#hits cells phase A did not reach then finish
//    on the lane's own stream through bernoulli_trials, after the
//    classification draw a hit on the last phase-A draw still owes.
//
// Each run therefore consumes exactly the draws sim::inject makes and
// faults the same cells, in the same ascending order. The output is
// integer-only, so every ISA gives bit-identical results.
//
// ISA dispatch: the same template is built for AVX-512F (8 lanes) and AVX2
// (4 lanes) through per-function target attributes, and the CPU is queried
// once. A host with neither, or a non-x86-64 build, has no kernel and keeps
// the scalar loop: a default-ISA (SSE2) build of the template is slower
// than it. Kernels take pointers, not vector values, so no vector type
// crosses a function boundary whose ABI depends on the ISA.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {

/// Most runs one lock-step batch carries (the AVX-512F width).
inline constexpr std::int32_t kMaxLockstepLanes = 8;

/// L lanes of 64-bit words as one GCC/Clang vector (8 * L bytes). A class
/// member: GCC drops a dependent vector_size on a function-local alias.
template <int L>
struct LaneVector {
  typedef std::uint64_t type __attribute__((vector_size(8 * L)));
};

/// Phase A over L lanes. `state` holds the lanes' xoshiro256** states
/// structure-of-arrays (word i of lane k at state[i * L + k]) and is
/// advanced by `draws` steps in place. Lane k's candidate mask fills
/// masks[k * words .. k * words + words - 1], words = ceil(draws / 64):
/// bit j % 64 of word j / 64 is set iff the lane's draw j is below
/// `threshold`; bits past `draws` are zero. Always inlined, so a caller
/// with a target attribute gets the body in its own ISA.
template <int L>
[[gnu::always_inline]] inline void lockstep_candidates(
    std::uint64_t* state, std::int32_t draws, std::uint64_t threshold,
    std::uint64_t* masks) {
  static_assert(L > 0 && L <= kMaxLockstepLanes && (L & (L - 1)) == 0);
  using V = typename LaneVector<L>::type;
  V s0{};
  V s1{};
  V s2{};
  V s3{};
  std::memcpy(&s0, state, sizeof(V));
  std::memcpy(&s1, state + L, sizeof(V));
  std::memcpy(&s2, state + 2 * L, sizeof(V));
  std::memcpy(&s3, state + 3 * L, sizeof(V));
  const V limit = V{} + threshold;
  const std::int32_t words = (draws + 63) / 64;
  for (std::int32_t w = 0; w < words; ++w) {
    const std::int32_t in_word = draws - w * 64 < 64 ? draws - w * 64 : 64;
    V candidates = V{};
    V bit = V{} + 1;
    for (std::int32_t b = 0; b < in_word; ++b) {
      // result = rotl(s1 * 5, 7) * 9, then the xoshiro256** state update.
      const V times5 = (s1 << 2) + s1;
      const V rotated = (times5 << 7) | (times5 >> 57);
      const V result = (rotated << 3) + rotated;
      const V t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      candidates |= reinterpret_cast<V>(result < limit) & bit;
      bit += bit;
    }
    for (int k = 0; k < L; ++k) {
      masks[static_cast<std::size_t>(k) * static_cast<std::size_t>(words) +
            static_cast<std::size_t>(w)] = candidates[k];
    }
  }
  std::memcpy(state, &s0, sizeof(V));
  std::memcpy(state + L, &s1, sizeof(V));
  std::memcpy(state + 2 * L, &s2, sizeof(V));
  std::memcpy(state + 3 * L, &s3, sizeof(V));
}

/// One phase-A build: its lane count, a name for bench labels and tests,
/// and the entry point (a lockstep_candidates<lanes> instantiation).
struct LockstepKernel {
  using Candidates = void (*)(std::uint64_t* state, std::int32_t draws,
                              std::uint64_t threshold, std::uint64_t* masks);
  std::int32_t lanes = 0;
  const char* isa = "";
  Candidates candidates = nullptr;
};

/// The template at the translation unit's default ISA. Correct on any host;
/// tests use it to check the lane logic where the ISA builds cannot run.
template <int L>
LockstepKernel generic_lockstep_kernel() noexcept {
  return {L, "generic", &lockstep_candidates<L>};
}

/// The ISA builds this CPU runs, widest first: "avx512f" (8 lanes), then
/// "avx2" (4 lanes). Empty off x86-64 or on a CPU with neither.
std::span<const LockstepKernel> supported_lockstep_kernels();

/// The kernel Session's v1 loop uses for `model`: the widest supported one
/// when `model` is a standalone kBernoulli whose fault probability
/// q = 1 - p lies strictly inside (0, 1); otherwise nullptr, and the scalar
/// loop serves the query.
const LockstepKernel* lockstep_kernel_for(const FaultModel& model);

/// Lock-step v1 Bernoulli injection of `kernel.lanes` runs at a time. Owns
/// one batch's lane states and candidate masks; reuse it across the batches
/// of one query.
class LockstepBernoulli {
 public:
  /// `fault_prob` is q = 1 - p and must lie strictly inside (0, 1).
  LockstepBernoulli(const LockstepKernel& kernel, std::int32_t cell_count,
                    double fault_prob);

  std::int32_t lanes() const noexcept { return kernel_.lanes; }

  /// Sets the stream `lane` starts from at the next draw(); Session loads
  /// run_stream(seed, first_run + lane).
  void load(std::int32_t lane, const Rng& stream);

  /// Phase A over the loaded lanes.
  void draw() {
    kernel_.candidates(state_.data(), cell_count_, threshold_, masks_.data());
  }

  /// Phase B for `lane` of the last draw(): marks the run's faults in
  /// `state`, which must arrive reset, and flushes the injection counters as
  /// sim::inject does. Returns the run's stream after its last draw, where
  /// sim::inject leaves it.
  Rng inject(std::int32_t lane, FaultState& state) const;

 private:
  LockstepKernel kernel_;
  std::int32_t cell_count_;
  std::int32_t words_;
  double fault_prob_;
  std::uint64_t threshold_;
  std::array<std::uint64_t, 4 * kMaxLockstepLanes> state_{};
  std::vector<std::uint64_t> masks_;
};

}  // namespace dmfb::sim
