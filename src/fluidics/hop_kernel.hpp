// fluidics::HopKernel — up to L breadth-first hop counts on one usable-cell
// bitmap at once, one search per 64-bit lane of a vector.
//
// The bitmap is HopGrid's: cell (q, r) at bit (r - min_r) * stride +
// (q - min_q), one clear pad column per row, so the six hex steps are
// shifts by ±1, ±stride and ±(stride - 1). Every search of a batch reads
// the same bitmap, so the kernel interleaves them: word i of lane k's
// frontier sits at buffer index i * L + k, and word i of all L frontiers is
// one vector. A multi-word shift moves each lane by the same amount and
// carries between a lane's own neighbouring words only, so each lane runs
// exactly the one-search BFS: its answer is the one a scalar search gives.
//
// One level. With E = f << 1 and W = f >> 1 (multi-word shifts of the
// frontier f), the cells one hop from f are
//   E | W | ((f | E) << (stride - 1)) | ((f | W) >> (stride - 1)),
// because a shift distributes over OR: (f | f << 1) << s = f << s |
// f << (s + 1). That is two row shifts per word instead of four. The
// result also holds f itself, and so may the kernel's stale words (see
// below); neither matters, since every cell ever in a frontier is already
// cleared from the lane's `open` set, and a level keeps only reach & open.
//
// Buffers. The frontier buffers carry pad = (stride - 1) / 64 + 2 zero
// words on each side, so every read of word i ± (pad - 1) ± 1 stays in the
// buffer. A level sweeps only the words within (stride / 64) + 1 of the
// lanes' joint frontier span; words outside it keep bits of older
// frontiers, whose cells and their neighbours are all reached already, so
// they add no fresh bits. A lane finishes on the level its target turns up
// (answer: that level) or its frontier empties (answer: -1); then its open
// set is emptied, so it grows no more and its answer stays.
//
// ISA dispatch, like sim/geometric_gaps.cpp: one template, built for AVX2
// (4 lanes) through a per-function target attribute and at the default ISA
// (2 lanes), and the CPU queried once, on first use. Other widths were
// slower or no faster on the 80,803 fallback searches of one
// builtin:fig13_operational campaign (4-vCPU Xeon VM with AVX-512, Release,
// best of 21 passes, median of 3 invocations, ns per search): AVX2 x4 163,
// AVX-512 x8 171, AVX2 x8 (two vectors) 466, default ISA x2 193 and x4 272,
// against 317 for one search at a time. So there is no AVX-512 build. The
// kernel takes
// pointers, not vector values, so no vector type crosses a function
// boundary whose ABI depends on the ISA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace dmfb::fluidics {

/// Most searches one kernel call runs (the AVX2 width).
inline constexpr std::int32_t kMaxHopLanes = 4;

/// One kernel call: `pairs` searches (1 to the kernel's lanes) on one
/// HopGrid bitmap. Each search's endpoints are distinct bits set in
/// `usable`.
struct HopSearch {
  const std::uint64_t* usable = nullptr;  ///< `words` words
  std::int32_t words = 0;
  std::int32_t stride = 0;  ///< HopGrid::stride(), >= 2
  std::int32_t pairs = 0;
  const std::int32_t* from_bits = nullptr;  ///< `pairs` source bits
  const std::int32_t* to_bits = nullptr;    ///< `pairs` target bits
  /// hop_buffer_words(words, stride, lanes) words of scratch.
  std::uint64_t* buffer = nullptr;
  /// One answer per lane: search k's hop count, -1 when its target is
  /// unreachable; lanes from `pairs` on are idle and answer -1.
  std::int32_t* hops = nullptr;
};

/// Scratch words a kernel of `lanes` lanes needs on a grid of `words`
/// words and `stride`: frontier, next frontier and open set, each padded.
inline std::size_t hop_buffer_words(std::int32_t words, std::int32_t stride,
                                    std::int32_t lanes) noexcept {
  const auto pad = static_cast<std::size_t>((stride - 1) >> 6) + 2;
  // One vector of slack to align the buffers.
  return (3 * (static_cast<std::size_t>(words) + 2 * pad) + 1) *
         static_cast<std::size_t>(lanes);
}

/// One build of the kernel: its lane count, a name for bench labels and
/// tests, and its entry point.
struct HopKernel {
  std::int32_t lanes = 0;
  const char* isa = "";
  void (*search)(const HopSearch& search) = nullptr;
};

/// Every build this CPU runs, the default first: "avx2" (4 lanes) where the
/// CPU has AVX2, then "default" (2 lanes, the build's own ISA), which runs
/// everywhere.
std::span<const HopKernel> hop_kernels();

/// The build HopGrid uses: hop_kernels().front().
inline const HopKernel& default_hop_kernel() { return hop_kernels().front(); }

}  // namespace dmfb::fluidics
