#include "fluidics/router.hpp"

#include <algorithm>
#include <queue>

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

namespace {

// A bounding box this large would make every bitmap over 2 MiB; the arrays
// modelled here are a few hundred cells.
constexpr std::int64_t kMaxHopGridBits = std::int64_t{1} << 24;

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

void HopGrid::hops(std::span<const std::uint64_t> usable,
                   std::span<const Pair> pairs, std::span<std::int32_t> out,
                   Scratch& scratch, const HopKernel& kernel) const {
  const std::size_t words = word_count();
  DMFB_EXPECTS(usable.size() == words);
  DMFB_EXPECTS(out.size() == pairs.size());
  DMFB_EXPECTS(kernel.lanes > 0 && kernel.lanes <= kMaxHopLanes);
  // A cell's bit when the cell is on the grid and usable, else -1.
  const auto usable_bit = [&](hex::CellIndex cell) -> std::int32_t {
    if (cell < 0 || static_cast<std::size_t>(cell) >= bit_of_cell_.size()) {
      return -1;
    }
    const std::int32_t bit = bit_of_cell_[static_cast<std::size_t>(cell)];
    const std::uint64_t word = usable[static_cast<std::size_t>(bit) >> 6];
    return ((word >> (bit & 63)) & 1) != 0 ? bit : -1;
  };
  const std::size_t need = hop_buffer_words(static_cast<std::int32_t>(words),
                                            stride_, kernel.lanes);
  if (scratch.buffer.size() < need) scratch.buffer.resize(need);

  std::int32_t from_bits[kMaxHopLanes] = {};
  std::int32_t to_bits[kMaxHopLanes] = {};
  std::int32_t lane_hops[kMaxHopLanes] = {};
  std::size_t slot[kMaxHopLanes] = {};  // the out index of each lane's pair
  HopSearch search;
  search.usable = usable.data();
  search.words = static_cast<std::int32_t>(words);
  search.stride = stride_;
  search.from_bits = from_bits;
  search.to_bits = to_bits;
  search.buffer = scratch.buffer.data();
  search.hops = lane_hops;
  const auto run = [&] {
    kernel.search(search);
    for (std::int32_t k = 0; k < search.pairs; ++k) {
      out[slot[k]] = lane_hops[k];
    }
    search.pairs = 0;
  };
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::int32_t from = usable_bit(pairs[p].from);
    const std::int32_t to = usable_bit(pairs[p].to);
    if (from < 0 || to < 0) {
      out[p] = -1;
    } else if (from == to) {
      out[p] = 0;
    } else {
      from_bits[search.pairs] = from;
      to_bits[search.pairs] = to;
      slot[search.pairs] = p;
      if (++search.pairs == kernel.lanes) run();
    }
  }
  if (search.pairs > 0) run();
}

PrimaryGeodesics::PrimaryGeodesics(const biochip::HexArray& array,
                                   std::span<const hex::CellIndex> anchors)
    : anchors_(anchors.size()),
      words_((static_cast<std::size_t>(array.cell_count()) + 63) / 64),
      distance_(anchors_ * anchors_, 0),
      certified_(anchors_ * anchors_, 0),
      paths_(anchors_ * anchors_ * words_, 0) {
  const hex::Region& region = array.region();
  for (const hex::CellIndex anchor : anchors) {
    DMFB_EXPECTS(anchor >= 0 && anchor < array.cell_count());
  }
  // BFS distances over primary cells from the current source; -1 marks a
  // cell the search has not reached (every spare, and cut-off primaries).
  std::vector<std::int32_t> dist(static_cast<std::size_t>(array.cell_count()));
  std::vector<hex::CellIndex> queue;
  queue.reserve(dist.size());
  const auto dist_of = [&dist](hex::CellIndex cell) -> std::int32_t& {
    return dist[static_cast<std::size_t>(cell)];
  };
  for (std::size_t a = 0; a < anchors_; ++a) {
    const hex::CellIndex source = anchors[a];
    std::fill(dist.begin(), dist.end(), -1);
    queue.clear();
    if (array.role(source) == biochip::CellRole::kPrimary) {
      dist_of(source) = 0;
      queue.push_back(source);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const hex::CellIndex v = queue[head];
      for (const hex::CellIndex u : array.primary_neighbors_of(v)) {
        if (dist_of(u) >= 0) continue;
        dist_of(u) = dist_of(v) + 1;
        queue.push_back(u);
      }
    }
    for (std::size_t b = 0; b < anchors_; ++b) {
      const std::size_t p = a * anchors_ + b;
      hex::CellIndex cell = anchors[b];
      distance_[p] =
          hex::distance(region.coord_at(source), region.coord_at(cell));
      if (dist_of(cell) != distance_[p]) continue;  // no primary geodesic
      // Walk back from the target: each step moves to the first primary
      // neighbour one BFS level closer to the source.
      certified_[p] = 1;
      std::uint64_t* path = paths_.data() + p * words_;
      for (;;) {
        const auto bit = static_cast<std::size_t>(cell);
        path[bit >> 6] |= std::uint64_t{1} << (bit & 63);
        if (cell == source) break;
        const std::span<const hex::CellIndex> back =
            array.primary_neighbors_of(cell);
        cell = *std::find_if(back.begin(), back.end(), [&](hex::CellIndex u) {
          return dist_of(u) == dist_of(cell) - 1;
        });
      }
    }
  }
}

}  // namespace dmfb::fluidics
