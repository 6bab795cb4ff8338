// sim::LockstepBernoulli — v1 Bernoulli injection for several runs at once.
//
// The v1 contract (common/rng.hpp) makes one xoshiro256** trial draw per
// cell, plus one classification draw after each hit, on the run's serial
// stream, so a run consumes cell_count + #hits draws. A draw's cost is
// instruction throughput, not latency: the step's loop-carried chain is two
// operations long. So the gain comes from advancing L independent runs'
// streams in the L lanes of one vector, never from reordering the draws of
// one run.
//
//  * Phase A (lockstep_candidates, SIMD): cell_count + slack draws per
//    lane, where the slack (lockstep_slack) is the mean #hits plus three
//    standard deviations, so the classification draws a run needs nearly
//    always come from the vector loop too. Bit j of a lane's candidate
//    mask says its draw j fell below bernoulli_threshold(q). xoshiro's *5,
//    *9 and rotates are shifts, adds and ors, so no 64-bit vector multiply
//    is needed.
//  * Phase B (lockstep_faults, one lane and one 64-draw mask word at a
//    time, branch-free within a word): a candidate at draw j is a hit
//    unless draw j - 1 was a hit, in which case j is that hit's
//    classification draw. classification_draws finds those draws with an
//    odd-run carry chain (the recurrence of simdjson's escaped-character
//    mask), carrying "the previous draw was a hit" across words. The trial
//    draws are the other ones, so the word's fault cells are
//    compress(hits, trials) — pext — ORed into the fault words at the
//    running cell offset. The run ends where its trials reach cell_count.
//  * Fallback: a lane with more hits than the slack runs out of phase-A
//    draws first. It resumes on the scalar bernoulli_trials loop from the
//    lane state, which sits exactly at draw draws(), after settling the
//    classification draw a hit on the last phase-A draw still owes.
//
// Each run therefore consumes exactly the draws sim::inject makes and
// faults the same cells. The output is integer-only, so every ISA gives
// bit-identical results.
//
// ISA dispatch: both phases are built for AVX-512F + BMI2 (8 lanes) and
// AVX2 + BMI2 (4 lanes) through per-function target attributes, and the
// CPU is queried once. A host without BMI2's pext, with neither vector ISA,
// or a non-x86-64 build, has no kernel and keeps the scalar loop: a
// default-ISA (SSE2) build of the template is slower than it, and with a
// loop compress in place of pext phase B is slower than the per-hit scalar
// walk it replaced. Kernels take pointers, not vector values, so no vector
// type crosses a function boundary whose ABI depends on the ISA.
#pragma once

#include <array>
#include <bit>
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

/// Bit j is set iff draw j of the word is a classification draw, i.e. draw
/// j - 1 was a hit, given the word's candidate mask. `carry` holds 1 iff the
/// draw before the word was a hit on entry, and iff the word's draw 63 was
/// on return. In a run of consecutive candidates after a non-hit, the 1st,
/// 3rd, ... are hits and each classifies the next draw, so runs that start
/// on an odd bit are shifted onto even bits by one carrying add.
[[gnu::always_inline]] inline std::uint64_t classification_draws(
    std::uint64_t candidates, std::uint64_t& carry) noexcept {
  constexpr std::uint64_t kEven = 0x5555555555555555ULL;
  // A draw the previous word's last hit classifies starts no run.
  candidates &= ~carry;
  const std::uint64_t follows = (candidates << 1) | carry;
  const std::uint64_t odd_starts = candidates & ~kEven & ~follows;
  std::uint64_t even_runs = 0;
  carry = __builtin_add_overflow(odd_starts, candidates, &even_runs) ? 1 : 0;
  return (kEven ^ (even_runs << 1)) & follows;
}

/// What phase B made of one lane's phase-A draws.
struct LockstepRun {
  /// Cells whose trials phase A held: cell_count unless the lane ran out of
  /// draws (its hits exceeded the slack).
  std::int32_t cells = 0;
  /// Faults marked among those cells.
  std::int32_t hits = 0;
  /// Only when cells < cell_count: the last phase-A draw was a hit, so its
  /// classification draw is the lane stream's next one.
  bool classification_owed = false;
};

/// Compress by a loop over the mask's bits: bit i of the result is the bit
/// of `x` under the i-th set bit of `mask`. The generic (test) kernel's
/// stand-in for BMI2's pext.
struct PortableCompress {
  static std::uint64_t apply(std::uint64_t x, std::uint64_t mask) noexcept {
    std::uint64_t result = 0;
    for (std::uint64_t out = 1; mask != 0; mask &= mask - 1, out <<= 1) {
      if ((x & mask & (~mask + 1)) != 0) result |= out;
    }
    return result;
  }
};

/// Phase B over one lane's candidate masks (`draws` phase-A draws; bits past
/// them zero): marks the faults among the first `cell_count` trials in
/// `state`, which must arrive reset, one fault word at a time through
/// FaultState::set_faulty_word_ascending. `Compress::apply` is pext or a
/// stand-in. Always inlined, like lockstep_candidates.
template <typename Compress>
[[gnu::always_inline]] inline LockstepRun lockstep_faults(
    const std::uint64_t* masks, std::int32_t draws, std::int32_t cell_count,
    FaultState& state) {
  const std::int32_t words = (draws + 63) / 64;
  std::uint64_t carry = 0;    // the previous draw was a hit
  std::int32_t cells = 0;     // trials consumed so far (the cell offset)
  std::int32_t hits = 0;
  std::uint64_t pending = 0;  // fault word cells / 64, still being filled
  for (std::int32_t w = 0; w < words; ++w) {
    const std::int32_t in_word = draws - w * 64 < 64 ? draws - w * 64 : 64;
    const std::uint64_t candidates = masks[w];
    const std::uint64_t classification =
        classification_draws(candidates, carry);
    const std::uint64_t hit = candidates & ~classification;
    const std::uint64_t trials =
        ~classification & (~std::uint64_t{0} >> (64 - in_word));
    const std::int32_t shift = cells & 63;
    const auto word = static_cast<std::size_t>(cells >> 6);
    const std::int32_t need = cell_count - cells;
    const auto in_trials = static_cast<std::int32_t>(std::popcount(trials));
    std::uint64_t faults = Compress::apply(hit, trials);
    if (in_trials >= need) {
      // The run's last cell is in this word; later trials are not its own.
      faults &= ~std::uint64_t{0} >> (64 - need);
      state.set_faulty_word_ascending(word, pending | (faults << shift));
      if (shift + need > 64) {
        state.set_faulty_word_ascending(word + 1, faults >> (64 - shift));
      }
      return {cell_count, hits + static_cast<std::int32_t>(
                                     std::popcount(faults)),
              false};
    }
    hits += static_cast<std::int32_t>(std::popcount(faults));
    pending |= faults << shift;
    if (shift + in_trials >= 64) {
      state.set_faulty_word_ascending(word, pending);
      // faults >> (64 - shift), and 0 at shift 0, without a 64-bit shift.
      pending = (faults >> 1) >> (63 - shift);
    }
    cells += in_trials;
    if (w == words - 1) {
      // Out of draws: the hit bit of the last drawn draw says whether its
      // classification draw is owed.
      state.set_faulty_word_ascending(static_cast<std::size_t>(cells >> 6),
                                      pending);
      return {cells, hits, ((hit >> (in_word - 1)) & 1) != 0};
    }
  }
  return {cells, hits, false};  // unreachable: draws > 0
}

/// One build of both phases: its lane count, a name for bench labels and
/// tests, phase A (a lockstep_candidates<lanes> instantiation) and phase B
/// (a lockstep_faults instantiation).
struct LockstepKernel {
  using Candidates = void (*)(std::uint64_t* state, std::int32_t draws,
                              std::uint64_t threshold, std::uint64_t* masks);
  using Faults = LockstepRun (*)(const std::uint64_t* masks,
                                 std::int32_t draws, std::int32_t cell_count,
                                 FaultState& state);
  std::int32_t lanes = 0;
  const char* isa = "";
  Candidates candidates = nullptr;
  Faults faults = nullptr;
};

/// Phase B at the translation unit's default ISA with PortableCompress.
LockstepRun generic_lockstep_faults(const std::uint64_t* masks,
                                    std::int32_t draws,
                                    std::int32_t cell_count,
                                    FaultState& state);

/// The template at the translation unit's default ISA. Correct on any host;
/// tests use it to check the lane logic where the ISA builds cannot run.
template <int L>
LockstepKernel generic_lockstep_kernel() noexcept {
  return {L, "generic", &lockstep_candidates<L>, &generic_lockstep_faults};
}

/// The ISA builds this CPU runs, widest first: "avx512f" (8 lanes), then
/// "avx2" (4 lanes), each only with BMI2. Empty off x86-64 or on a CPU
/// with neither.
std::span<const LockstepKernel> supported_lockstep_kernels();

/// The kernel Session's v1 loop uses for `model`: the widest supported one
/// when `model` is a standalone kBernoulli whose fault probability
/// q = 1 - p lies strictly inside (0, 1); otherwise nullptr, and the scalar
/// loop serves the query.
const LockstepKernel* lockstep_kernel_for(const FaultModel& model);

/// Draws phase A makes beyond cell_count per lane: the mean #hits of a run
/// (cell_count * q) plus three standard deviations, rounded up, plus one,
/// and never more than cell_count — a run needs at most cell_count extra
/// draws, so a lane draws at most 2 * cell_count. A pure function of
/// (cell_count, q), fixed for a query.
std::int32_t lockstep_slack(std::int32_t cell_count, double fault_prob);

/// Lock-step v1 Bernoulli injection of `kernel.lanes` runs at a time. Owns
/// one batch's lane states and candidate masks; reuse it across the batches
/// of one query.
class LockstepBernoulli {
 public:
  /// `fault_prob` is q = 1 - p and must lie strictly inside (0, 1).
  LockstepBernoulli(const LockstepKernel& kernel, std::int32_t cell_count,
                    double fault_prob);

  std::int32_t lanes() const noexcept { return kernel_.lanes; }

  /// Phase-A draws per lane: cell_count + lockstep_slack(cell_count, q).
  std::int32_t draws() const noexcept { return draws_; }

  /// Sets the stream `lane` starts from at the next draw(); Session loads
  /// run_stream(seed, first_run + lane).
  void load(std::int32_t lane, const Rng& stream);

  /// Phase A over the loaded lanes.
  void draw() {
    kernel_.candidates(state_.data(), draws_, threshold_, masks_.data());
  }

  /// Phase B for `lane` of the last draw(), with the scalar fallback: marks
  /// the run's faults in `state`, which must arrive reset, and flushes the
  /// injection counters as sim::inject does. Returns the draws the run
  /// consumed, cell_count + #faults: sim::inject leaves the run's stream
  /// that many draws past its start.
  std::int32_t inject(std::int32_t lane, FaultState& state) const;

 private:
  LockstepKernel kernel_;
  std::int32_t cell_count_;
  std::int32_t draws_;
  std::int32_t words_;
  double fault_prob_;
  std::uint64_t threshold_;
  std::array<std::uint64_t, 4 * kMaxLockstepLanes> state_{};
  std::vector<std::uint64_t> masks_;
};

}  // namespace dmfb::sim
