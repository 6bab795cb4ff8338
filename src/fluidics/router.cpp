#include "fluidics/router.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/contracts.hpp"
#include "hexgrid/hex_coord.hpp"

namespace dmfb::fluidics {

UsableCells::UsableCells(const biochip::HexArray& array) : array_(array) {}

void UsableCells::activate_spare(hex::CellIndex spare) {
  DMFB_EXPECTS(array_.role(spare) == biochip::CellRole::kSpare);
  activated_spares_.insert(spare);
}

void UsableCells::activate_plan(const reconfig::ReconfigPlan& plan) {
  for (const reconfig::Replacement& replacement : plan.replacements) {
    // Unused-primary replacements (combined pool) are usable already.
    if (array_.role(replacement.spare) == biochip::CellRole::kSpare) {
      activate_spare(replacement.spare);
    }
  }
}

void UsableCells::block(hex::CellIndex cell) { blocked_.insert(cell); }
void UsableCells::unblock(hex::CellIndex cell) { blocked_.erase(cell); }

bool UsableCells::usable(hex::CellIndex cell) const {
  if (cell < 0 || cell >= array_.cell_count()) return false;
  if (blocked_.contains(cell)) return false;
  if (array_.health(cell) == biochip::CellHealth::kFaulty) return false;
  if (array_.role(cell) == biochip::CellRole::kSpare) {
    return activated_spares_.contains(cell);
  }
  return true;
}

Router::Router(const UsableCells& usable) : usable_(usable) {}

std::vector<hex::CellIndex> Router::shortest_route(hex::CellIndex from,
                                                   hex::CellIndex to) const {
  if (!usable_.usable(from) || !usable_.usable(to)) return {};
  const auto& array = usable_.array();
  std::vector<std::int32_t> parent(
      static_cast<std::size_t>(array.cell_count()), -2);
  std::queue<hex::CellIndex> frontier;
  parent[static_cast<std::size_t>(from)] = -1;
  frontier.push(from);
  while (!frontier.empty() && parent[static_cast<std::size_t>(to)] == -2) {
    const hex::CellIndex v = frontier.front();
    frontier.pop();
    for (const hex::CellIndex u : array.neighbors_of(v)) {
      if (parent[static_cast<std::size_t>(u)] != -2) continue;
      if (!usable_.usable(u)) continue;
      parent[static_cast<std::size_t>(u)] = v;
      frontier.push(u);
    }
  }
  if (parent[static_cast<std::size_t>(to)] == -2) return {};
  std::vector<hex::CellIndex> route;
  for (hex::CellIndex v = to; v != -1;
       v = parent[static_cast<std::size_t>(v)]) {
    route.push_back(v);
  }
  std::reverse(route.begin(), route.end());
  return route;
}

bool Router::reachable(hex::CellIndex from, hex::CellIndex to) const {
  return !shortest_route(from, to).empty();
}

namespace {

// A bounding box this large would make every bitmap over 2 MiB; the arrays
// modelled here are a few hundred cells.
constexpr std::int64_t kMaxHopGridBits = std::int64_t{1} << 24;

// Word i of a padded bitmap `f` shifted by `s` = 64q + r bits towards higher
// (up) or lower (down) bit indices, ORed together. The carried-in halves
// shift by 1 and then 63 - r, which is the 64 - r carry for r > 0 and
// clears the carry for r = 0, where a single shift by 64 would be UB.
inline std::uint64_t shifted_both_ways(const std::uint64_t* f,
                                       std::ptrdiff_t i, std::ptrdiff_t q,
                                       std::uint32_t r) noexcept {
  const std::uint64_t up = (f[i - q] << r) | ((f[i - q - 1] >> 1) >> (63 - r));
  const std::uint64_t down =
      (f[i + q] >> r) | ((f[i + q + 1] << 1) << (63 - r));
  return up | down;
}

}  // namespace

HopGrid::HopGrid(const biochip::HexArray& array) {
  const hex::Region& region = array.region();
  DMFB_EXPECTS(!region.empty());
  const hex::Region::Bounds box = region.bounds();
  const std::int64_t width = std::int64_t{box.max_q} - box.min_q + 1;
  const std::int64_t rows = std::int64_t{box.max_r} - box.min_r + 1;
  DMFB_EXPECTS((width + 1) * rows <= kMaxHopGridBits);
  stride_ = static_cast<std::int32_t>(width + 1);
  primary_words_.assign(
      static_cast<std::size_t>(((width + 1) * rows + 63) / 64), 0);
  bit_of_cell_.resize(static_cast<std::size_t>(array.cell_count()));
  for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
    const hex::HexCoord at = region.coord_at(cell);
    bit_of_cell_[static_cast<std::size_t>(cell)] = static_cast<std::int32_t>(
        (std::int64_t{at.r} - box.min_r) * stride_ +
        (std::int64_t{at.q} - box.min_q));
    if (array.role(cell) == biochip::CellRole::kPrimary) {
      set(primary_words_, cell);
    }
  }
}

std::int32_t HopGrid::hops(std::span<const std::uint64_t> usable,
                           hex::CellIndex from, hex::CellIndex to,
                           Scratch& scratch) const {
  const std::size_t words = word_count();
  DMFB_EXPECTS(usable.size() == words);
  const auto is_usable = [&](hex::CellIndex cell) {
    if (cell < 0 || static_cast<std::size_t>(cell) >= bit_of_cell_.size()) {
      return false;
    }
    const std::int32_t bit = bit_of_cell_[static_cast<std::size_t>(cell)];
    return ((usable[static_cast<std::size_t>(bit) >> 6] >> (bit & 63)) & 1) !=
           0;
  };
  if (!is_usable(from) || !is_usable(to)) return -1;
  if (from == to) return 0;

  // `open` holds the usable cells not yet reached. The frontier buffers
  // carry `pad` zero words on each side, so the shifted reads at i ± (q + 1)
  // never leave the buffer, and a level only sweeps the words within `pad`
  // of the frontier's nonzero span [lo, hi]. Words outside that sweep keep
  // bits of older frontiers; those cells and all their neighbours are
  // already reached, so they add no fresh bits and need no clearing.
  const auto diagonal = static_cast<std::uint32_t>(stride_ - 1);
  const auto vertical = static_cast<std::uint32_t>(stride_);
  const auto pad = static_cast<std::ptrdiff_t>(vertical >> 6) + 1;
  const auto n = static_cast<std::ptrdiff_t>(words);
  scratch.frontier.assign(words + 2 * static_cast<std::size_t>(pad), 0);
  scratch.next.assign(words + 2 * static_cast<std::size_t>(pad), 0);
  scratch.open.assign(usable.begin(), usable.end());
  std::uint64_t* frontier = scratch.frontier.data() + pad;
  std::uint64_t* next = scratch.next.data() + pad;
  std::uint64_t* open = scratch.open.data();

  const std::int32_t from_bit = bit_of_cell_[static_cast<std::size_t>(from)];
  const std::int32_t to_bit = bit_of_cell_[static_cast<std::size_t>(to)];
  std::ptrdiff_t lo = from_bit >> 6;
  std::ptrdiff_t hi = lo;
  frontier[lo] = std::uint64_t{1} << (from_bit & 63);
  open[lo] &= ~frontier[lo];
  const std::ptrdiff_t to_word = to_bit >> 6;
  const std::uint64_t to_mask = std::uint64_t{1} << (to_bit & 63);
  for (std::int32_t level = 1;; ++level) {
    const std::ptrdiff_t first = std::max<std::ptrdiff_t>(0, lo - pad);
    const std::ptrdiff_t last = std::min<std::ptrdiff_t>(n - 1, hi + pad);
    std::ptrdiff_t next_lo = n;
    std::ptrdiff_t next_hi = -1;
    for (std::ptrdiff_t i = first; i <= last; ++i) {
      // East/west (±1), south-east/north-west (±stride) and
      // south-west/north-east (±(stride - 1)).
      const std::uint64_t reach =
          shifted_both_ways(frontier, i, 0, 1) |
          shifted_both_ways(frontier, i, vertical >> 6, vertical & 63) |
          shifted_both_ways(frontier, i, diagonal >> 6, diagonal & 63);
      const std::uint64_t fresh = reach & open[i];
      next[i] = fresh;
      open[i] &= ~fresh;
      if (fresh != 0) {
        next_lo = std::min(next_lo, i);
        next_hi = i;
      }
    }
    if ((next[to_word] & to_mask) != 0) return level;
    if (next_hi < 0) return -1;
    std::swap(frontier, next);
    lo = next_lo;
    hi = next_hi;
  }
}

hex::CellIndex TimedRoute::at(std::int64_t t) const {
  DMFB_EXPECTS(!cells.empty());
  if (t < 0) t = 0;
  const auto last = static_cast<std::int64_t>(cells.size()) - 1;
  return cells[static_cast<std::size_t>(std::min(t, last))];
}

MultiDropletRouter::MultiDropletRouter(const UsableCells& usable,
                                       std::int32_t horizon)
    : usable_(usable), horizon_(horizon) {
  DMFB_EXPECTS(horizon > 0);
}

std::optional<std::vector<TimedRoute>> MultiDropletRouter::route(
    const std::vector<RouteRequest>& requests) const {
  const auto& array = usable_.array();
  const auto coord = [&](hex::CellIndex c) { return array.region().coord_at(c); };

  std::vector<TimedRoute> routed;
  for (const RouteRequest& request : requests) {
    DMFB_EXPECTS(request.from != hex::kInvalidCell);
    DMFB_EXPECTS(request.to != hex::kInvalidCell);
    const auto exempt = [&](DropletId other) {
      return std::find(request.exempt.begin(), request.exempt.end(), other) !=
             request.exempt.end();
    };

    // A transition prev -> cell arriving at time `t` is legal iff, against
    // every earlier routed droplet r:
    //   static          : dist(cell, r.at(t))   >= 2
    //   dynamic (ours)  : dist(cell, r.at(t-1)) >= 2   (we sweep past r)
    //   dynamic (theirs): dist(prev, r.at(t))   >= 2   (r sweeps past us)
    // Exempt (merge-destined) pairs may come adjacent, but must never
    // occupy the same cell at the same time — the actual merge is an
    // explicit scheduler step, not a routing accident.
    const auto legal = [&](hex::CellIndex prev, hex::CellIndex cell,
                           std::int64_t t) {
      for (const TimedRoute& r : routed) {
        if (exempt(r.droplet)) {
          if (cell == r.at(t)) return false;
          continue;
        }
        if (hex::distance(coord(cell), coord(r.at(t))) <= 1) return false;
        if (t > 0 && hex::distance(coord(cell), coord(r.at(t - 1))) <= 1) {
          return false;
        }
        if (prev != hex::kInvalidCell &&
            hex::distance(coord(prev), coord(r.at(t))) <= 1) {
          return false;
        }
      }
      return true;
    };

    // BFS over (cell, time) states; waiting in place is a legal move.
    const auto n = static_cast<std::size_t>(array.cell_count());
    // parent[(t * n) + cell] = previous cell (or -1 at the start state).
    std::vector<std::int32_t> parent(
        n * static_cast<std::size_t>(horizon_ + 1), -2);
    const auto state = [&](std::int64_t t, hex::CellIndex c) {
      return static_cast<std::size_t>(t) * n + static_cast<std::size_t>(c);
    };
    if (!usable_.usable(request.from) || !usable_.usable(request.to)) {
      return std::nullopt;
    }
    if (!legal(hex::kInvalidCell, request.from, 0)) return std::nullopt;
    std::queue<std::pair<std::int64_t, hex::CellIndex>> frontier;
    parent[state(0, request.from)] = -1;
    frontier.push({0, request.from});
    std::int64_t arrival = -1;
    while (!frontier.empty()) {
      const auto [t, cell] = frontier.front();
      frontier.pop();
      // Arrival requires the droplet to be able to PARK: once arrived it
      // stays, so the goal must stay legal forever. We accept on reaching
      // the goal and rely on later requests checking against the parked
      // position; earlier droplets are already fixed, so verify the park
      // against them for a grace window.
      if (cell == request.to) {
        bool can_park = true;
        for (std::int64_t tp = t; tp <= t + 2 && can_park; ++tp) {
          can_park = legal(cell, cell, tp);
        }
        // Also ensure no earlier droplet later drives adjacent to the
        // parked cell.
        for (const TimedRoute& r : routed) {
          if (exempt(r.droplet)) continue;
          for (std::int64_t tp = t; tp <= r.arrival_time() + 1; ++tp) {
            if (hex::distance(coord(cell), coord(r.at(tp))) <= 1) {
              can_park = false;
              break;
            }
          }
          if (!can_park) break;
        }
        if (can_park) {
          arrival = t;
          break;
        }
      }
      if (t >= horizon_) continue;
      // Wait or move to a usable neighbour.
      const auto try_step = [&](hex::CellIndex next) {
        if (parent[state(t + 1, next)] != -2) return;
        if (!usable_.usable(next)) return;
        if (!legal(cell, next, t + 1)) return;
        parent[state(t + 1, next)] = cell;
        frontier.push({t + 1, next});
      };
      try_step(cell);  // wait
      for (const hex::CellIndex next : array.neighbors_of(cell)) {
        try_step(next);
      }
    }
    if (arrival < 0) return std::nullopt;

    TimedRoute timed;
    timed.droplet = request.droplet;
    timed.cells.resize(static_cast<std::size_t>(arrival) + 1);
    hex::CellIndex cursor = request.to;
    for (std::int64_t t = arrival; t >= 0; --t) {
      timed.cells[static_cast<std::size_t>(t)] = cursor;
      cursor = parent[state(t, cursor)];
    }
    DMFB_ASSERT(cursor == -1);
    routed.push_back(std::move(timed));
  }
  return routed;
}

}  // namespace dmfb::fluidics
