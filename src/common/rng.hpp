// Deterministic pseudo-random number generation for Monte-Carlo yield
// simulation.
//
// The engine is xoshiro256** (Blackman & Vigna), seeded through splitmix64 so
// that any 64-bit seed — including 0 — yields a well-mixed state. The class
// satisfies UniformRandomBitGenerator, and additionally offers the unbiased
// bounded-integer and sampling helpers the simulators need, plus `split()`
// for deriving statistically independent child streams (one per Monte-Carlo
// worker / experiment arm) from a single experiment seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.hpp"

namespace dmfb {

/// xoshiro256** engine with splitmix64 seeding and stream splitting.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; any seed value (including 0) is acceptable.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output. Inline: the Monte-Carlo injection loops draw
  /// once per cell, so a cross-TU call per draw would dominate the run
  /// kernel (the draw *sequence* is pinned by the replay contract; only the
  /// cost per draw is negotiable).
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    // Top 53 bits scaled by 2^-53: the canonical xoshiro double recipe.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability `prob` (clamped to [0,1]).
  bool bernoulli(double prob) noexcept {
    if (prob <= 0.0) return false;
    if (prob >= 1.0) return true;
    return uniform01() < prob;
  }

  /// Unbiased uniform integer in [0, bound); bound must be > 0.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless unbiased bounded generation.
    if (bound == 0) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Unbiased uniform integer in [lo, hi] (inclusive); lo <= hi is enforced
  /// (ContractViolation otherwise — a reversed range would silently skew
  /// samples if it just returned lo).
  int uniform_int(int lo, int hi);

  /// Derives an independent child stream (distinct seed trajectory).
  Rng split() noexcept;

  /// The raw 256-bit engine state, and an engine resumed from one: for
  /// kernels that advance several streams side by side in SIMD lanes
  /// (sim/lockstep_bernoulli.hpp) and resume a lane on the scalar path.
  std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }
  static Rng from_state(const std::array<std::uint64_t, 4>& state) noexcept {
    Rng rng(Raw{});
    for (std::size_t i = 0; i < 4; ++i) rng.state_[i] = state[i];
    return rng;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Samples k distinct integers from [0, n), uniformly, in random order.
  /// Uses Floyd's algorithm semantics via partial Fisher-Yates. k <= n.
  std::vector<std::int32_t> sample_without_replacement(std::int32_t n,
                                                       std::int32_t k);

 private:
  struct Raw {};
  explicit Rng(Raw) noexcept : state_{} {}

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// splitmix64 step — exposed for deterministic seed derivation in tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Integer form of `uniform01() < prob` for 0 < prob < 1: a raw draw x
/// passes iff x < bernoulli_threshold(prob). uniform01() is k * 2^-53 for
/// the integer k = x >> 11, both sides are exact doubles, and k * 2^-53 < q
/// holds iff k < ceil(q * 2^53) — which for q < 1 is at most 2^53 - 1, so
/// the shift by 11 cannot overflow.
inline std::uint64_t bernoulli_threshold(double prob) noexcept {
  return static_cast<std::uint64_t>(std::ceil(prob * 0x1.0p53)) << 11;
}

/// v1 trial loop: for each index in [0, count), makes exactly the draws
/// `rng.bernoulli(prob)` makes, in order, and calls on_hit(index, rng) on a
/// success so the hit's own draws (classification) continue the same
/// stream. The v1 Bernoulli injection core (sim/fault_model.cpp) runs on it.
/// Each trial is one raw draw against bernoulli_threshold(prob), with no
/// u64->double conversion. Degenerate probabilities keep bernoulli()'s
/// draw semantics: prob <= 0 draws nothing, prob >= 1 hits every index
/// without a trial draw. The loop draws from a local copy written back
/// once, so the state stays in registers across on_hit's stores. NaN (where
/// bernoulli() would draw and always miss) is a contract violation.
template <typename OnHit>
void bernoulli_trials(Rng& rng, std::int32_t count, double prob,
                      OnHit&& on_hit) {
  DMFB_EXPECTS(!std::isnan(prob));
  if (prob <= 0.0 || count <= 0) return;
  Rng local = rng;
  if (prob >= 1.0) {
    for (std::int32_t index = 0; index < count; ++index) on_hit(index, local);
  } else {
    const std::uint64_t threshold = bernoulli_threshold(prob);
    for (std::int32_t index = 0; index < count; ++index) {
      if (local() < threshold) on_hit(index, local);
    }
  }
  rng = local;
}

// ---------------------------------------------------------------------------
// v2 injection draw contract: counter-based per-cell streams.
//
// The v1 contract above is a *serial* replay: every consumer draws from one
// xoshiro trajectory in lock-step, so injection cannot skip a cell without
// desynchronising every later draw. The v2 contract replaces the trajectory
// with a keyed counter hash — draw i of a run is a pure function of
// (seed, run, i) — so sparse samplers may jump straight to the next faulty
// cell (geometric skip-sampling) and still agree bit-for-bit with any other
// evaluation order. v1 stays the default everywhere; v2 is opted into via
// the `rng_version` key (sim::YieldQuery, campaign specs).

/// Which injection draw contract a query/campaign runs under.
enum class RngVersion : std::uint8_t {
  kV1 = 1,  ///< serial xoshiro replay (the original golden contract)
  kV2 = 2,  ///< counter-based per-cell streams + skip-sampling
};

/// Stateless counter hash: splitmix64's output function evaluated at an
/// arbitrary offset of the key's golden-ratio trajectory. This *is* a
/// counter-based generator (splitmix64 is `finalize(seed + i * phi)`), so it
/// inherits the engine the repo already trusts for seeding; the chi-square
/// suite in tests/test_rng_v2.cpp pins uniformity and pairwise independence.
constexpr std::uint64_t counter_mix(std::uint64_t key,
                                    std::uint64_t counter) noexcept {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL * (counter + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One run's v2 draw stream: a key plus a cursor over counter_mix outputs.
/// Random access (`at`) never moves the cursor; the serial helpers
/// (`next`/`uniform01`/`bernoulli`/`uniform_below`) advance it one counter
/// per raw draw, and `skip` advances it without hashing — consuming a draw
/// the record-keeping sink materialises (e.g. a defect-classification value
/// the bitmap sink never reads) costs nothing.
class CounterStream {
 public:
  explicit CounterStream(std::uint64_t key) noexcept : key_(key) {}

  std::uint64_t key() const noexcept { return key_; }
  std::uint64_t cursor() const noexcept { return cursor_; }

  /// Draw at an explicit counter; does not move the cursor.
  std::uint64_t at(std::uint64_t counter) const noexcept {
    return counter_mix(key_, counter);
  }
  /// Uniform double in [0, 1) at an explicit counter (53 random bits).
  double uniform01_at(std::uint64_t counter) const noexcept {
    return static_cast<double>(at(counter) >> 11) * 0x1.0p-53;
  }

  /// Next raw 64-bit draw; advances the cursor.
  std::uint64_t next() noexcept { return counter_mix(key_, cursor_++); }

  /// Uniform double in [0, 1) with 53 random bits; advances the cursor.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial: true with probability `prob` (clamped to [0,1]).
  /// Degenerate probabilities consume no draw, same as Rng::bernoulli.
  bool bernoulli(double prob) noexcept {
    if (prob <= 0.0) return false;
    if (prob >= 1.0) return true;
    return uniform01() < prob;
  }

  /// Unbiased uniform integer in [0, bound) (Lemire, like Rng); rejection
  /// retries advance the cursor, so the draw count is itself deterministic.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Advances the cursor by `draws` without hashing: consumes draws whose
  /// values the caller does not need (classification/attribution) for free.
  void skip(std::uint64_t draws) noexcept { cursor_ += draws; }

 private:
  std::uint64_t key_;
  std::uint64_t cursor_ = 0;
};

/// The v2 geometric gap of uniform `u` for a run of `count` indices, where
/// `denom` = log1p(-prob): the inverse-CDF sample floor(log1p(-u) / denom),
/// or `count` when that reaches count (the run ends at this draw). The
/// quotient y is compared against `count` in double precision *before* the
/// integer cast, so a near-1 uniform at tiny prob (y ~ 1e300) ends the run
/// instead of overflowing the cast. Below count, truncation is floor, since
/// y >= +0 (log1p(-u) <= 0 and denom < 0): this takes no libm floor call,
/// which the default x86-64 ISA (no roundsd) would make per gap. The one
/// definition of a v2 gap: skip_sample_bernoulli and the SIMD gap kernel's
/// exact fallback (sim/geometric_gaps.hpp) both call it.
inline std::int64_t geometric_gap(double u, double denom,
                                  std::int64_t count) noexcept {
  // u == 0 gives log1p(-0.0) == -0.0, so y is -0.0/denom == +0.0: the
  // inverse-CDF is total on [0, 1) without further guards.
  const double y = std::log1p(-u) / denom;
  if (y >= static_cast<double>(count)) return count;
  return static_cast<std::int64_t>(y);
}

/// Geometric skip-sampling: calls on_index(i) for every i in [0, count)
/// whose independent Bernoulli(prob) trial succeeds, in ascending order,
/// consuming one uniform draw per *success* (plus one terminating overshoot
/// draw) instead of one per index; each draw's gap is geometric_gap().
/// prob <= 0 returns without consuming any draw; prob >= 1 makes every gap
/// collapse to 0 (log1p(-u)/-inf == +0.0) and visits every index, one draw
/// each — no special case needed.
template <typename OnIndex>
void skip_sample_bernoulli(CounterStream& stream, std::int64_t count,
                           double prob, OnIndex&& on_index) {
  if (prob <= 0.0 || count <= 0) return;
  const double denom = prob >= 1.0 ? -std::numeric_limits<double>::infinity()
                                   : std::log1p(-prob);
  std::int64_t index = -1;
  for (;;) {
    const std::int64_t skip = geometric_gap(stream.uniform01(), denom, count);
    if (skip >= count) return;
    index += 1 + skip;
    if (index >= count) return;
    on_index(static_cast<std::int32_t>(index));
  }
}

}  // namespace dmfb
