#include "fluidics/hop_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace dmfb::fluidics {

namespace {

/// L 64-bit lanes as a GCC/Clang vector that may sit at any 8-byte address
/// and alias the buffer's std::uint64_t words. A class member: GCC drops a
/// dependent vector_size on a function-local alias.
template <int L>
struct HopLanes {
  typedef std::uint64_t word
      __attribute__((vector_size(8 * L), aligned(8), may_alias));
};

/// The kernel body (see hop_kernel.hpp). Always inlined, so a caller with a
/// target attribute gets it in its own ISA.
template <int L>
[[gnu::always_inline]] inline void search_lanes(const HopSearch& s) {
  static_assert(L > 0 && L <= kMaxHopLanes);
  using V = typename HopLanes<L>::word;
  const std::ptrdiff_t n = s.words;
  // The diagonal shift stride - 1 = 64q + r; a level reaches at most
  // `reach` words past the frontier span.
  const std::ptrdiff_t q = (s.stride - 1) >> 6;
  const auto r = static_cast<unsigned>((s.stride - 1) & 63);
  const std::ptrdiff_t pad = q + 2;
  const std::ptrdiff_t reach = (s.stride >> 6) + 1;
  const auto padded = static_cast<std::size_t>(n + 2 * pad) * L;

  // Vectors start at a multiple of their size, so no load splits a cache
  // line (hop_buffer_words leaves the slack).
  std::uint64_t* const base =
      s.buffer + ((0 - reinterpret_cast<std::uintptr_t>(s.buffer)) / 8 % L);
  std::fill(base, base + 2 * padded, std::uint64_t{0});
  V* front = reinterpret_cast<V*>(base) + pad;
  V* next = reinterpret_cast<V*>(base + padded) + pad;
  V* open = reinterpret_cast<V*>(base + 2 * padded) + pad;
  const V zero{};
  for (std::ptrdiff_t i = 0; i < n; ++i) open[i] = zero + s.usable[i];

  // Lane k starts from its source bit; idle lanes start empty and finished.
  std::uint32_t running = 0;  // bit k: lane k is still searching
  std::ptrdiff_t to_word[kMaxHopLanes];
  std::uint64_t to_mask[kMaxHopLanes];
  std::ptrdiff_t lo = n;
  std::ptrdiff_t hi = -1;
  for (int k = 0; k < L; ++k) {
    s.hops[k] = -1;
    if (k >= s.pairs) continue;
    const std::ptrdiff_t word = s.from_bits[k] >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (s.from_bits[k] & 63);
    front[word][k] = bit;
    open[word][k] &= ~bit;
    lo = std::min(lo, word);
    hi = std::max(hi, word);
    running |= 1U << k;
    to_word[k] = s.to_bits[k] >> 6;
    to_mask[k] = std::uint64_t{1} << (s.to_bits[k] & 63);
  }
  const auto nonzero = [](const std::uint64_t* lanes) {
    std::uint64_t any = 0;
    for (int k = 0; k < L; ++k) any |= lanes[k];
    return any != 0;
  };

  for (std::int32_t level = 1;; ++level) {
    const std::ptrdiff_t first = std::max<std::ptrdiff_t>(0, lo - reach);
    const std::ptrdiff_t last = std::min<std::ptrdiff_t>(n - 1, hi + reach);
    // The sweep keeps fresh = cells & open at word i, where cells is
    // E | W | f plus the row shifts (f | E) << (stride - 1) and
    // (f | W) >> (stride - 1), built from (f | E)[j] = f[j] | f[j] << 1 |
    // f[j - 1] >> 63 and (f | W)[j] = f[j] | f[j] >> 1 | f[j + 1] << 63;
    // down_prev = (f | E)[i - q - 1], up = (f | W)[i + q]. The carried-in
    // halves shift by 1 and then 63 - r, which clears the carry at r = 0,
    // where one shift by 64 would be UB. No lambda: it would not inherit
    // the caller's target ISA.
    V grown{};
    const V* f = front + (first - q - 1);
    V down_prev = f[0] | (f[0] << 1) | (f[-1] >> 63);
    f = front + (first + q);
    V up = f[0] | (f[0] >> 1) | (f[1] << 63);
    for (std::ptrdiff_t i = first; i <= last; ++i) {
      f = front + (i - q);
      const V down = f[0] | (f[0] << 1) | (f[-1] >> 63);
      f = front + (i + q + 1);
      const V up_next = f[0] | (f[0] >> 1) | (f[1] << 63);
      f = front + i;
      const V cells = f[0] | (f[0] << 1) | (f[-1] >> 63) | (f[0] >> 1) |
                      (f[1] << 63) | (down << r) |
                      ((down_prev >> 1) >> (63 - r)) | (up >> r) |
                      ((up_next << 1) << (63 - r));
      const V fresh = cells & open[i];
      next[i] = fresh;
      open[i] &= ~fresh;
      grown |= fresh;
      down_prev = down;
      up = up_next;
    }
    // Settle the running lanes: target reached, or frontier empty. A
    // finished lane's open set is emptied, so it grows no more.
    std::uint64_t grown_lanes[kMaxHopLanes];
    std::memcpy(grown_lanes, &grown, sizeof grown);
    const std::uint32_t was_running = running;
    for (std::size_t k = 0; k < L; ++k) {
      if ((running >> k & 1U) == 0) continue;
      const bool found = (next[to_word[k]][k] & to_mask[k]) != 0;
      if (!found && grown_lanes[k] != 0) continue;
      s.hops[k] = found ? level : -1;
      running &= ~(1U << k);
    }
    if (running == 0) return;
    if (running != was_running) {
      V keep{};
      for (int k = 0; k < L; ++k) {
        keep[k] = 0 - std::uint64_t{running >> k & 1U};
      }
      for (std::ptrdiff_t i = 0; i < n; ++i) open[i] &= keep;
    }
    // The next frontier's span: some running lane grew, so it is not empty.
    lo = first;
    while (!nonzero(reinterpret_cast<const std::uint64_t*>(next + lo))) ++lo;
    hi = last;
    while (!nonzero(reinterpret_cast<const std::uint64_t*>(next + hi))) --hi;
    std::swap(front, next);
  }
}

void search_default(const HopSearch& search) { search_lanes<2>(search); }

#if defined(__x86_64__)
[[gnu::target("avx2")]] void search_avx2(const HopSearch& search) {
  search_lanes<4>(search);
}

std::vector<HopKernel> detect_kernels() {
  __builtin_cpu_init();
  std::vector<HopKernel> kernels;
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({4, "avx2", &search_avx2});
  }
  kernels.push_back({2, "default", &search_default});
  return kernels;
}
#else
std::vector<HopKernel> detect_kernels() {
  return {{2, "default", &search_default}};
}
#endif

}  // namespace

std::span<const HopKernel> hop_kernels() {
  static const std::vector<HopKernel> kernels = detect_kernels();
  return kernels;
}

}  // namespace dmfb::fluidics
