#include "graph/csr_matching.hpp"

#include <limits>

namespace dmfb::graph {

namespace {
constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max();
}  // namespace

bool CsrMatcher::hk_bfs(const CsrBipartiteGraph& graph) {
  layer_.assign(static_cast<std::size_t>(graph.left_count()), kInf);
  queue_.clear();
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    if (match_left_[static_cast<std::size_t>(a)] == kUnmatched) {
      layer_[static_cast<std::size_t>(a)] = 0;
      queue_.push_back(a);
    }
  }
  bool found_free_right = false;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::int32_t a = queue_[head];
    for (const std::int32_t b : graph.neighbors_of_left(a)) {
      const std::int32_t back = match_right_[static_cast<std::size_t>(b)];
      if (back == kUnmatched) {
        found_free_right = true;
      } else if (layer_[static_cast<std::size_t>(back)] == kInf) {
        layer_[static_cast<std::size_t>(back)] =
            layer_[static_cast<std::size_t>(a)] + 1;
        queue_.push_back(back);
      }
    }
  }
  return found_free_right;
}

bool CsrMatcher::hk_augment(const CsrBipartiteGraph& graph, std::int32_t a) {
  for (const std::int32_t b : graph.neighbors_of_left(a)) {
    const std::int32_t back = match_right_[static_cast<std::size_t>(b)];
    const bool advance = back == kUnmatched ||
                         (layer_[static_cast<std::size_t>(back)] ==
                              layer_[static_cast<std::size_t>(a)] + 1 &&
                          hk_augment(graph, back));
    if (advance) {
      match_left_[static_cast<std::size_t>(a)] = b;
      match_right_[static_cast<std::size_t>(b)] = a;
      return true;
    }
  }
  layer_[static_cast<std::size_t>(a)] = kInf;  // dead end this phase
  return false;
}

std::int32_t CsrMatcher::maximum_matching_size(
    const CsrBipartiteGraph& graph) {
  match_left_.assign(static_cast<std::size_t>(graph.left_count()), kUnmatched);
  match_right_.assign(static_cast<std::size_t>(graph.right_count()),
                      kUnmatched);
  std::int32_t size = 0;
  while (hk_bfs(graph)) {
    for (std::int32_t a = 0; a < graph.left_count(); ++a) {
      if (match_left_[static_cast<std::size_t>(a)] == kUnmatched &&
          hk_augment(graph, a)) {
        ++size;
      }
    }
  }
  return size;
}

}  // namespace dmfb::graph
