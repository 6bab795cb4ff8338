// Droplet routing on a (possibly faulty, possibly reconfigured) array.
//
// Three entry points:
//  * Router — single-droplet BFS shortest path over *usable* cells (healthy
//    primaries plus explicitly activated spares, minus explicit obstacles).
//    After local reconfiguration the matched spares are activated, so routes
//    transparently detour through replacement cells — this is the
//    operational payoff of interstitial redundancy.
//  * HopGrid — the same BFS distance without the path: a word-parallel
//    frontier expansion over a usable-cell bitmap, for callers that only
//    need hop counts (the operational Monte-Carlo kernel).
//  * MultiDropletRouter — prioritised space-time routing for concurrent
//    droplets: each droplet gets a timed route (cell per time step, waits
//    allowed) that respects the static and dynamic fluidic constraints
//    against all previously routed droplets.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "biochip/hex_array.hpp"
#include "fluidics/constraints.hpp"
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

  /// Adds a temporary obstacle (e.g. a parked droplet's exclusion zone).
  void block(hex::CellIndex cell);
  void unblock(hex::CellIndex cell);

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

  /// True iff `to` is reachable from `from` over usable cells.
  bool reachable(hex::CellIndex from, hex::CellIndex to) const;

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
  /// Reusable BFS buffers, one per thread; hops() sizes them for its grid.
  struct Scratch {
    std::vector<std::uint64_t> frontier;
    std::vector<std::uint64_t> next;
    std::vector<std::uint64_t> open;
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

  /// Hops on a shortest path from `from` to `to` through the cells set in
  /// `usable` (word_count() words, built with set/clear): exactly
  /// Router::shortest_route(from, to).size() - 1 for the same usable set,
  /// and -1 where that route is empty (an endpoint unusable, or no path).
  std::int32_t hops(std::span<const std::uint64_t> usable,
                    hex::CellIndex from, hex::CellIndex to,
                    Scratch& scratch) const;

 private:
  std::int32_t stride_ = 0;
  std::vector<std::int32_t> bit_of_cell_;
  std::vector<std::uint64_t> primary_words_;
};

/// One droplet's routing request, in priority order.
struct RouteRequest {
  DropletId droplet = 0;
  hex::CellIndex from = hex::kInvalidCell;
  hex::CellIndex to = hex::kInvalidCell;
  /// Droplets this one may touch (merge targets) — constraints are waived
  /// against them.
  std::vector<DropletId> exempt;
};

/// A routed droplet trajectory: cells[t] is the position at time t.
/// Once arrived the droplet parks at its destination.
struct TimedRoute {
  DropletId droplet = 0;
  std::vector<hex::CellIndex> cells;

  hex::CellIndex at(std::int64_t t) const;
  std::int64_t arrival_time() const noexcept {
    return static_cast<std::int64_t>(cells.size()) - 1;
  }
};

/// Prioritised space-time router.
class MultiDropletRouter {
 public:
  MultiDropletRouter(const UsableCells& usable, std::int32_t horizon = 512);

  /// Routes the requests in order; each respects constraints against all
  /// earlier (already routed) droplets. Returns nullopt when any droplet
  /// cannot reach its goal within the horizon.
  std::optional<std::vector<TimedRoute>> route(
      const std::vector<RouteRequest>& requests) const;

 private:
  const UsableCells& usable_;
  std::int32_t horizon_;
};

}  // namespace dmfb::fluidics
