// The bipartite graph BG(A, B, E) of the paper's reconfiguration model
// (Fig. 8) and the Hopcroft-Karp matcher that runs on it.
//
// CsrBipartiteGraph is the repo's one bipartite-graph representation: left
// rows are appended in order into two shared vectors (CSR layout) and
// clear() rewinds without releasing capacity. CsrMatcher owns Hopcroft-
// Karp's work buffers (match arrays, BFS layers, BFS queue) and likewise
// reuses them across calls, so one (graph, matcher) pair serves any number
// of instances with zero steady-state allocation; reconfig::RepairGraph,
// the one repair-graph builder behind every reconfiguration plan, runs on
// it.
//
// The matcher's size is checked against brute force and its matching
// against a Koenig certificate by the matching fuzz suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/matching.hpp"

namespace dmfb::graph {

/// Append-only bipartite adjacency in CSR form. Build left rows in order
/// with open_row()/add_edge(); clear() rewinds for the next instance while
/// keeping the allocated capacity.
class CsrBipartiteGraph {
 public:
  void clear() noexcept {
    row_start_.clear();
    flat_.clear();
    right_count_ = 0;
  }

  /// Opens the next left vertex's (initially empty) neighbour row.
  void open_row() { row_start_.push_back(static_cast<std::int32_t>(flat_.size())); }

  /// Adds an edge from the currently open row to right vertex `right`.
  void add_edge(std::int32_t right) {
    flat_.push_back(right);
    if (right >= right_count_) right_count_ = right + 1;
  }

  std::int32_t left_count() const noexcept {
    return static_cast<std::int32_t>(row_start_.size());
  }
  std::int32_t right_count() const noexcept { return right_count_; }
  std::int32_t edge_count() const noexcept {
    return static_cast<std::int32_t>(flat_.size());
  }

  std::span<const std::int32_t> neighbors_of_left(std::int32_t left) const {
    const auto i = static_cast<std::size_t>(left);
    const std::int32_t begin = row_start_[i];
    const std::int32_t end = i + 1 < row_start_.size()
                                 ? row_start_[i + 1]
                                 : static_cast<std::int32_t>(flat_.size());
    return {flat_.data() + begin, static_cast<std::size_t>(end - begin)};
  }

 private:
  std::vector<std::int32_t> row_start_;
  std::vector<std::int32_t> flat_;
  std::int32_t right_count_ = 0;
};

/// Reusable Hopcroft-Karp workspace. Not thread-safe; use one per thread.
class CsrMatcher {
 public:
  /// Size of a maximum matching of `graph` (Hopcroft-Karp).
  std::int32_t maximum_matching_size(const CsrBipartiteGraph& graph);

  /// True iff a maximum matching saturates every left vertex (the local
  /// reconfiguration repairability predicate).
  bool covers_all_left(const CsrBipartiteGraph& graph) {
    return maximum_matching_size(graph) == graph.left_count();
  }

  /// Left-side matching of the last maximum_matching_size call
  /// (kUnmatched = -1 entries for uncovered vertices). Valid until the next
  /// call; right ids are the caller's compacted indices.
  std::span<const std::int32_t> match_of_left() const noexcept {
    return match_left_;
  }

 private:
  bool hk_bfs(const CsrBipartiteGraph& graph);
  bool hk_augment(const CsrBipartiteGraph& graph, std::int32_t a);

  std::vector<std::int32_t> match_left_;
  std::vector<std::int32_t> match_right_;
  std::vector<std::int32_t> layer_;  // BFS layers over left
  std::vector<std::int32_t> queue_;  // flat BFS queue
};

}  // namespace dmfb::graph
