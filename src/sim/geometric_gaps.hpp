// sim::GapKernel — v2 geometric skip-sampling with its gaps computed
// several at a time, bit-identical to skip_sample_bernoulli.
//
// The v2 contract (common/rng.hpp) draws one uniform u per gap and takes
// the gap floor(y), y = log1p(-u) / denom, denom = log1p(-prob), ending the
// run when y >= count (geometric_gap). On a FaultState bitmap every fault
// consumes exactly one more draw (its skipped classification or
// attribution draw), so gap j of a run whose cursor starts at c draws at
// counter c + 2j: every gap draw of a run is known before any gap is
// taken. A kernel hashes L such counters at once (counter_mix),
// approximates y in each lane, and settles a lane only when the
// approximation proves which integer the exact formula gives. Every other
// lane is evaluated by geometric_gap itself. The result is bit-identical
// to the scalar loop on any host, whatever the kernel.
//
// Approximation. u = (z >> 11) * 2^-53 for the draw z, and v = 1 - u is
// exact (u and 1 - u are multiples of 2^-53 in [0, 1]), so ln v equals
// log1p(-u) in exact arithmetic; v >= 2^-53 is a normal double. The kernel
// splits v = m * 2^e with m in [c, 2c), c = 0x1.6a09e667f3bcdp-1 (the
// double nearest sqrt(2)/2), and takes
//   ln v = e * ln2 + 2 s (1 + s^2/3 + s^4/5 + ... + s^12/13),
//   s = (m - 1) / (m + 1), |s| <= 0.17158,
// then x = ln v * r with r = 1/denom rounded to double.
//
// Error bound. Each step below is one IEEE double operation with relative
// error at most 2^-53; a fused multiply-add only removes roundings.
//  * m - 1 is exact (Sterbenz: m in [1/2, 2]). s carries two roundings:
//    relative error <= 2^-52, which moves ln m by at most 1.031 times that
//    (the elasticity s atanh'(s) / atanh(s) <= 1 / (1 - s^2)).
//  * The dropped tail of 2 atanh(s) is below s^14 / (15 (1 - s^2)) <
//    2^-39.4 relative. Horner over s^2 <= 0.02944 with the rounded
//    coefficients 1/(2i+1) errs by < 2^-51 of the sum, which is >= 1, and
//    the product 2s * sum adds one rounding. So ln m is within 2^-39.3
//    relatively.
//  * If e = 0, ln v = ln m. Otherwise |e ln2| >= 0.693 and |ln m| <= 0.3466,
//    so |ln v| >= 0.3466: the error of ln m enters at most once, that of
//    e * ln2 (ln2 rounded, one product: < 2^-52.4 of |e ln2|) at most
//    twice, and the sum adds one rounding. ln v is within 2^-39.2.
//  * r and the product x add two roundings: x = (ln v / denom)(1 + d_x),
//    |d_x| < 2^-39.1.
//  * The exact side: glibc documents log1p within 1-2 ulp (<= 2^-51
//    relative) and the division adds one rounding, so
//    y = (ln v / denom)(1 + d_y), |d_y| < 2^-50.6.
// Hence |x / y - 1| < 2^-39. With tau = 2^-26 the bracket
//   lo = x (1 - tau),  hi = x (1 + tau),
// each rounded once more, holds lo <= y <= hi with a margin of about 2^13
// on the error bound: it would survive a log1p some thousands of ulp off.
// r finite keeps x finite or +inf; x = +inf only when the real quotient
// exceeds DBL_MAX, and then y >= count too.
//
// Filter. floor_hi is hi rounded to the nearest integer, less 1 where that
// exceeds hi, so floor_hi + 1 > hi >= y. A compiler may fuse hi's product
// into that rounding; the bracket holds for the exact product too, and
// then floor_hi + 1 exceeds one of the two products, both >= y. A lane
// with x > 0, hi < count and lo >= floor_hi is settled at floor_hi:
// floor_hi <= lo <= y < floor_hi + 1, so floor(y) = floor_hi, and
// y <= hi < count. A lane with lo >= count ends the run (y >= count). Any
// other lane, x = 0 (only u = 0) or an integer inside (lo, hi] (count
// included), is evaluated exactly. An integer falls in the bracket with
// probability about 2 tau x per gap, so the exact path is rare; it is
// never wrong.
//
// ISA dispatch, like sim/lockstep_bernoulli.hpp: the filter is built for
// AVX2 + FMA (4 lanes) through per-function target attributes, and the CPU
// is queried once, on first use. A host without both, or a non-x86-64
// build, has no kernel and keeps the scalar loop. There is no AVX-512
// build: on a 4-vCPU Xeon VM with AVX-512 an 8-lane kernel's first vector
// cost about 75-80 ns against 48-56 for AVX2's, so it was slower for runs
// of up to about 8 expected faults, and it did not win serve_mixed's fig9
// mix reliably (4 pairs against AVX2, 3 won, medians 1.90M vs 1.83M
// runs/s). The kernel takes pointers, not vector values, so no vector type
// crosses a function boundary whose ABI depends on the ISA.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace dmfb::sim {

/// Relative half-width of the filter's bracket around the approximation.
inline constexpr double kGapTau = 0x1.0p-26;

/// The code a kernel writes for a lane it cannot settle: evaluate
/// geometric_gap on the lane's uniform. Any other code is the lane's gap,
/// an integer in [0, count], where count means the run ends there.
inline constexpr double kGapExact = -1.0;

/// Most gaps one kernel call computes (skip_sample_gaps' block).
inline constexpr std::int32_t kMaxGapBlock = 32;

/// Fewest expected faults per run (prob * count) at which inject_v2 takes
/// its gaps from a kernel. A sparser run needs one or two gaps, and the
/// scalar loop's log1p calls cost less than the latency of one vector:
/// on a 4-vCPU Xeon VM the AVX2 kernel broke even with the scalar loop
/// near 1.3 expected faults (DTMB(2,6), 169 cells, 0.25-12 expected
/// faults), so the cut leaves a margin.
inline constexpr double kMinGapKernelFaults = 2.0;

/// L lanes of doubles, and of 64-bit integers, as GCC/Clang vectors. A
/// class member: GCC drops a dependent vector_size on a function-local
/// alias.
template <int L>
struct GapLanes {
  typedef double real __attribute__((vector_size(8 * L)));
  typedef std::uint64_t bits __attribute__((vector_size(8 * L)));
};

/// The filter over `n` lanes (a multiple of L): codes[i] is lane i's gap
/// code for a run of `count` indices, given inv_denom = 1 / log1p(-prob)
/// (finite). kHashed: lane i's uniform is the draw at counter
/// `counter + 2i` of the stream keyed `key`; otherwise it is uniforms[i]
/// (a multiple of 2^-53 in [0, 1)). Always inlined, so a caller with a
/// target attribute gets the body in its own ISA.
template <int L, bool kHashed>
[[gnu::always_inline]] inline void gap_codes(
    std::uint64_t key, std::uint64_t counter, const double* uniforms,
    std::int32_t n, double inv_denom, double count, double* codes) {
  static_assert(L > 0 && (L & (L - 1)) == 0);
  using R = typename GapLanes<L>::real;
  using B = typename GapLanes<L>::bits;
  // Constants typed as the lanes: counter_mix's, then bit patterns.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9ULL;
  constexpr std::uint64_t kMix2 = 0x94d049bb133111ebULL;
  constexpr std::uint64_t kLow32 = 0xffffffffULL;
  constexpr std::uint64_t kTwo52 = 0x4330000000000000ULL;  // bits of 2^52
  constexpr std::uint64_t kC = 0x3fe6a09e667f3bcdULL;      // bits of c
  constexpr std::uint64_t kOne = 0x3ff0000000000000ULL;    // bits of 1.0
  constexpr std::uint64_t kMantissa = 0x000fffffffffffffULL;
  constexpr double kLn2 = 0x1.62e42fefa39efp-1;

  // counter_mix(key, c) starts from key + kGolden * (c + 1); lane k's c
  // advances by 2L per vector, so its start does by kGolden * 2L.
  B start{};
  for (int k = 0; k < L; ++k) {
    start[k] =
        key + kGolden * (counter + 1 + 2 * static_cast<std::uint64_t>(k));
  }
  const std::uint64_t stride = kGolden * (2 * static_cast<std::uint64_t>(L));
  const R zero{};
  const R one = zero + 1.0;
  const R limit = zero + count;
  const R exact = zero + kGapExact;
  for (std::int32_t i = 0; i < n; i += L) {
    R u{};
    if constexpr (kHashed) {
      B z = start;
      start += stride;
      z = (z ^ (z >> 30)) * kMix1;
      z = (z ^ (z >> 27)) * kMix2;
      z ^= z >> 31;
      // top = hi * 2^32 + lo, each half below 2^21 / 2^32, so each
      // converts exactly as (2^52 + half) - 2^52 and the sum is exact (no
      // int64 -> double vector instruction before AVX-512DQ).
      const B top = z >> 11;  // < 2^53
      const R high = reinterpret_cast<R>((top >> 32) | kTwo52) - 0x1.0p52;
      const R low = reinterpret_cast<R>((top & kLow32) | kTwo52) - 0x1.0p52;
      u = (high * 0x1.0p32 + low) * 0x1.0p-53;
    } else {
      std::memcpy(&u, uniforms + i, sizeof(R));
    }
    const R v = one - u;  // exact

    // v = m * 2^e with m in [c, 2c): t's exponent field is e + 1023.
    const B t = reinterpret_cast<B>(v) + (kOne - kC);
    const R m = reinterpret_cast<R>((t & kMantissa) + kC);
    const R e = reinterpret_cast<R>((t >> 52) | kTwo52) - (0x1.0p52 + 1023.0);
    const R s = (m - 1.0) / (m + 1.0);
    const R s2 = s * s;
    R poly = zero + 1.0 / 13.0;
    poly = poly * s2 + 1.0 / 11.0;
    poly = poly * s2 + 1.0 / 9.0;
    poly = poly * s2 + 1.0 / 7.0;
    poly = poly * s2 + 1.0 / 5.0;
    poly = poly * s2 + 1.0 / 3.0;
    poly = poly * s2 + 1.0;
    const R x = (e * kLn2 + (s + s) * poly) * inv_denom;

    const R lo = x * (1.0 - kGapTau);
    const R hi = x * (1.0 + kGapTau);
    // floor(hi) for 0 <= hi < 2^52: round to nearest through 2^52, then
    // step down where that rounded up (used only where hi < count).
    // Compares give lane masks, all ones where true.
    const R nearest = (hi + 0x1.0p52) - 0x1.0p52;
    const R floor_hi =
        nearest - reinterpret_cast<R>(reinterpret_cast<B>(nearest > hi) &
                                      reinterpret_cast<B>(one));
    const B settled = reinterpret_cast<B>(x > zero) &
                      reinterpret_cast<B>(hi < limit) &
                      reinterpret_cast<B>(lo >= floor_hi);
    const B ends = reinterpret_cast<B>(lo >= limit);
    const B code = (ends & reinterpret_cast<B>(limit)) |
                   (~ends & ((settled & reinterpret_cast<B>(floor_hi)) |
                             (~settled & reinterpret_cast<B>(exact))));
    std::memcpy(codes + i, &code, sizeof(B));
  }
}

/// One build of the filter: its lane count, a name for bench labels and
/// tests, and two entry points, both gap_codes instantiations.
struct GapKernel {
  /// Codes for the n draws at counters counter, counter + 2, ... of the
  /// stream keyed `key` (the production path).
  using AtCounters = void (*)(std::uint64_t key, std::uint64_t counter,
                              std::int32_t n, double inv_denom, double count,
                              double* codes);
  /// Codes for n given uniforms (tests drive the filter on chosen u).
  using OfUniforms = void (*)(const double* uniforms, std::int32_t n,
                              double inv_denom, double count, double* codes);
  std::int32_t lanes = 0;
  const char* isa = "";
  AtCounters at_counters = nullptr;
  OfUniforms of_uniforms = nullptr;
};

template <int L>
void generic_gaps_at_counters(std::uint64_t key, std::uint64_t counter,
                              std::int32_t n, double inv_denom, double count,
                              double* codes) {
  gap_codes<L, true>(key, counter, nullptr, n, inv_denom, count, codes);
}

template <int L>
void generic_gaps_of_uniforms(const double* uniforms, std::int32_t n,
                              double inv_denom, double count, double* codes) {
  gap_codes<L, false>(0, 0, uniforms, n, inv_denom, count, codes);
}

/// The filter at the translation unit's default ISA. Correct on any host;
/// tests use it to check the filter where the ISA builds cannot run.
template <int L>
GapKernel generic_gap_kernel() noexcept {
  return {L, "generic", &generic_gaps_at_counters<L>,
          &generic_gaps_of_uniforms<L>};
}

/// The kernel sim::inject_v2 uses on a FaultState: the "avx2" build (4
/// lanes, with FMA) where the CPU runs it, else nullptr (the scalar loop,
/// as off x86-64).
const GapKernel* default_gap_kernel();

/// skip_sample_bernoulli with its gaps from `kernel`, for a sink whose
/// every fault consumes exactly one draw after its gap draw (a bitmap
/// sink's skipped classification or attribution draw): calls mark(i) for
/// the indices skip_sample_bernoulli visits, in the same order, and leaves
/// the stream where that loop and sink leave it, at start + 2 * faults + 1.
/// `mark` must not touch the stream; the caller accounts for the skipped
/// draws. Takes the block of gap draws a run most likely needs
/// (prob * count + 1, in whole vectors) per kernel call. Returns the
/// number of faults, or -1, consuming nothing, unless 0 < prob < 1,
/// 1 / log1p(-prob) is finite and count > 0; the caller then runs
/// skip_sample_bernoulli.
template <typename Mark>
std::int64_t skip_sample_gaps(const GapKernel& kernel, CounterStream& stream,
                              std::int32_t count, double prob, Mark&& mark) {
  if (!(prob > 0.0 && prob < 1.0) || count <= 0) return -1;
  const double denom = std::log1p(-prob);
  const double inv_denom = 1.0 / denom;
  if (!std::isfinite(inv_denom)) return -1;
  const std::int32_t lanes = kernel.lanes;
  DMFB_EXPECTS(lanes > 0 && kMaxGapBlock % lanes == 0);
  double codes[kMaxGapBlock];
  const std::uint64_t start = stream.cursor();
  std::uint64_t counter = start;  // gap j of the run draws at start + 2j
  std::int64_t index = -1;
  std::int64_t faults = 0;
  for (;;) {
    // The draws the rest of the run most likely needs, faults + 1, in
    // whole vectors.
    const auto likely = static_cast<std::int32_t>(
        std::min(prob * static_cast<double>(count - 1 - index) + 1.0,
                 static_cast<double>(kMaxGapBlock)));
    const std::int32_t block =
        std::min(kMaxGapBlock, (likely / lanes + 1) * lanes);
    kernel.at_counters(stream.key(), counter, block, inv_denom,
                       static_cast<double>(count), codes);
    for (std::int32_t j = 0; j < block; ++j, counter += 2) {
      const std::int64_t skip =
          codes[j] == kGapExact
              ? geometric_gap(stream.uniform01_at(counter), denom, count)
              : static_cast<std::int64_t>(codes[j]);
      index += 1 + skip;
      if (skip >= count || index >= count) {
        stream.skip(counter + 1 - start);
        return faults;
      }
      mark(static_cast<std::int32_t>(index));
      ++faults;
    }
  }
}

}  // namespace dmfb::sim
