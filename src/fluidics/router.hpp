// Droplet routing on a (possibly faulty, possibly reconfigured) array.
//
// Two entry points:
//  * Router — single-droplet BFS shortest path over *usable* cells (healthy
//    primaries plus explicitly activated spares, minus explicit obstacles).
//    After local reconfiguration the matched spares are activated, so routes
//    transparently detour through replacement cells — this is the
//    operational payoff of interstitial redundancy.
//  * HopGrid — the same BFS distance without the path: a word-parallel
//    frontier expansion over a usable-cell bitmap, for callers that only
//    need hop counts (the operational Monte-Carlo kernel). A batch of
//    pairs on one bitmap runs several searches at once, one per SIMD lane
//    (fluidics/hop_kernel.hpp).
//
// PrimaryGeodesics answers many of those hop counts without a search: it
// stores one all-primary shortest path per pair of anchor cells, and a pair
// whose stored path has no faulty cell is exactly its hex distance apart.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "biochip/hex_array.hpp"
#include "common/contracts.hpp"
#include "fluidics/hop_kernel.hpp"
#include "reconfig/local_reconfig.hpp"

namespace dmfb::fluidics {

/// Cells a droplet may use.
class UsableCells {
 public:
  /// Healthy primaries are usable; spares only if activated.
  explicit UsableCells(const biochip::HexArray& array);

  /// Activates one spare (e.g. from a reconfiguration plan).
  void activate_spare(hex::CellIndex spare);
  /// Activates all replacement spares of `plan`.
  void activate_plan(const reconfig::ReconfigPlan& plan);

  /// Adds an obstacle (e.g. a parked droplet's exclusion zone).
  void block(hex::CellIndex cell);

  bool usable(hex::CellIndex cell) const;

  const biochip::HexArray& array() const noexcept { return array_; }

 private:
  const biochip::HexArray& array_;
  std::unordered_set<hex::CellIndex> activated_spares_;
  std::unordered_set<hex::CellIndex> blocked_;
};

/// Single-droplet shortest-path router (BFS; all hops cost 1).
class Router {
 public:
  explicit Router(const UsableCells& usable);

  /// Shortest route from `from` to `to`, inclusive; empty when unreachable.
  std::vector<hex::CellIndex> shortest_route(hex::CellIndex from,
                                             hex::CellIndex to) const;

 private:
  const UsableCells& usable_;
};

/// Immutable bitmap embedding of an array for hop counting. Cell (q, r) sits
/// at bit (r - min_r) * stride + (q - min_q) of the region's axial bounding
/// box, with one always-clear pad column so stride = width + 1: the six hex
/// steps become shifts by ±1, ±stride and ±(stride - 1), and a step off
/// either end of a row lands in a pad bit instead of wrapping into the next
/// row. Bitmaps are std::uint64_t words (bit b in word b/64, bit b%64).
class HopGrid {
 public:
  /// Reusable kernel buffer, one per thread; hops() grows it to what its
  /// grid and kernel need, so a reused Scratch allocates nothing.
  struct Scratch {
    std::vector<std::uint64_t> buffer;
  };

  /// One transport to count: its two endpoint cells.
  struct Pair {
    hex::CellIndex from = hex::kInvalidCell;
    hex::CellIndex to = hex::kInvalidCell;
  };

  /// Embeds `array`'s region; the bounding box may hold at most 2^24 bits.
  explicit HopGrid(const biochip::HexArray& array);

  std::int32_t stride() const noexcept { return stride_; }
  /// Words in every bitmap this grid reads or writes.
  std::size_t word_count() const noexcept { return primary_words_.size(); }
  /// Primary cells' bits: the usable set of a healthy array with no spare
  /// activated.
  std::span<const std::uint64_t> primary_words() const noexcept {
    return primary_words_;
  }

  /// Sets / clears a valid `cell`'s bit in a word_count()-word bitmap.
  void set(std::span<std::uint64_t> words, hex::CellIndex cell) const {
    const std::int32_t bit = bit_of_cell_[static_cast<std::size_t>(cell)];
    words[static_cast<std::size_t>(bit) >> 6] |= std::uint64_t{1}
                                                 << (bit & 63);
  }
  void clear(std::span<std::uint64_t> words, hex::CellIndex cell) const {
    const std::int32_t bit = bit_of_cell_[static_cast<std::size_t>(cell)];
    words[static_cast<std::size_t>(bit) >> 6] &=
        ~(std::uint64_t{1} << (bit & 63));
  }

  /// For every pair, into `out` (same size, same order): the hops on a
  /// shortest path from `pair.from` to `pair.to` through the cells set in
  /// `usable` (word_count() words, built with set/clear). That is exactly
  /// Router::shortest_route(from, to).size() - 1 for the same usable set,
  /// and -1 where that route is empty (an endpoint unusable, or no path).
  /// Pairs with an unusable endpoint (-1) or from == to (0) are answered
  /// here; the rest are searched `kernel.lanes` at a time.
  void hops(std::span<const std::uint64_t> usable,
            std::span<const Pair> pairs, std::span<std::int32_t> out,
            Scratch& scratch,
            const HopKernel& kernel = default_hop_kernel()) const;

 private:
  std::int32_t stride_ = 0;
  std::vector<std::int32_t> bit_of_cell_;
  std::vector<std::uint64_t> primary_words_;
};

/// Shortest all-primary paths between a fixed list of anchor cells, the
/// certificate that lets a hop count skip the BFS. For each ordered anchor
/// pair (a, b) it keeps the hex distance d(a, b) and, when some path of
/// exactly d(a, b) hops runs over primary cells only, one such path's cells
/// (both endpoints included) as a bitmap in cell-index layout: cell i at
/// bit i % 64 of word i / 64, the layout of sim::FaultState::fault_words().
/// A pair with no such path has no certificate.
///
/// Why a certified count is exact: take any usable set that holds every
/// healthy primary (the operational kernel's healthy primaries plus
/// activated spares). Every hop moves to a lattice neighbour, so no route
/// is shorter than d(a, b). If no cell of the stored path is faulty, every
/// cell of it is a healthy primary and so usable, which gives a route of
/// d(a, b) hops. Hence the shortest route has exactly d(a, b) hops:
/// Router::shortest_route(a, b).size() - 1 and HopGrid::hops both equal it.
class PrimaryGeodesics {
 public:
  /// Runs one BFS over `array`'s primary cells from each anchor (one
  /// distance vector reused) and backtracks each pair's path from it.
  /// Anchors must be valid cells; an anchor that is not a primary has no
  /// certified pair.
  PrimaryGeodesics(const biochip::HexArray& array,
                   std::span<const hex::CellIndex> anchors);

  std::size_t anchor_count() const noexcept { return anchors_; }
  /// Words in each path bitmap: (cell_count + 63) / 64.
  std::size_t word_count() const noexcept { return words_; }

  /// Hex distance from anchor `from` to anchor `to` (anchor-list indices).
  std::int32_t distance(std::size_t from, std::size_t to) const {
    return distance_[pair(from, to)];
  }
  bool certified(std::size_t from, std::size_t to) const {
    return certified_[pair(from, to)] != 0;
  }
  /// The certified pair's path bitmap (word_count() words); all zero for a
  /// pair with no certificate.
  std::span<const std::uint64_t> path(std::size_t from, std::size_t to) const {
    return {paths_.data() + pair(from, to) * words_, words_};
  }

  /// The hop count from anchor `from` to anchor `to` when the certificate
  /// proves it: the hex distance if the pair is certified and no cell of its
  /// path is set in `faulty` (word_count() words, cell-index layout), else
  /// -1 (the caller runs the BFS). Exact for every usable set that holds
  /// all primaries not set in `faulty` (see the class comment).
  std::int32_t certified_hops(std::size_t from, std::size_t to,
                              std::span<const std::uint64_t> faulty) const {
    DMFB_EXPECTS(faulty.size() == words_);
    const std::size_t p = pair(from, to);
    if (certified_[p] == 0) return -1;
    const std::uint64_t* path_words = paths_.data() + p * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      if ((path_words[w] & faulty[w]) != 0) return -1;
    }
    return distance_[p];
  }

 private:
  std::size_t pair(std::size_t from, std::size_t to) const {
    DMFB_EXPECTS(from < anchors_ && to < anchors_);
    return from * anchors_ + to;
  }

  std::size_t anchors_ = 0;
  std::size_t words_ = 0;
  std::vector<std::int32_t> distance_;   ///< hex distance per pair
  std::vector<std::uint8_t> certified_;  ///< 1 iff the pair has a path
  std::vector<std::uint64_t> paths_;     ///< pair-major path bitmaps
};

}  // namespace dmfb::fluidics
