#include "graph/matching.hpp"

#include <algorithm>
#include <optional>

#include "common/contracts.hpp"
#include "graph/csr_matching.hpp"

namespace dmfb::graph {

namespace {

/// The right side of `match_of_left`, or nullopt when it is not a valid
/// matching of `graph`.
std::optional<std::vector<std::int32_t>> match_of_right(
    const CsrBipartiteGraph& graph,
    std::span<const std::int32_t> match_of_left) {
  if (match_of_left.size() != static_cast<std::size_t>(graph.left_count())) {
    return std::nullopt;
  }
  std::vector<std::int32_t> right(
      static_cast<std::size_t>(graph.right_count()), kUnmatched);
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    const std::int32_t b = match_of_left[static_cast<std::size_t>(a)];
    if (b == kUnmatched) continue;
    if (b < 0 || b >= graph.right_count()) return std::nullopt;
    const auto nbrs = graph.neighbors_of_left(a);
    if (std::find(nbrs.begin(), nbrs.end(), b) == nbrs.end()) {
      return std::nullopt;
    }
    auto& partner = right[static_cast<std::size_t>(b)];
    if (partner != kUnmatched) return std::nullopt;
    partner = a;
  }
  return right;
}

}  // namespace

bool is_valid_matching(const CsrBipartiteGraph& graph,
                       std::span<const std::int32_t> match_of_left) {
  return match_of_right(graph, match_of_left).has_value();
}

std::vector<std::int32_t> hall_violator(
    const CsrBipartiteGraph& graph,
    std::span<const std::int32_t> match_of_left) {
  const auto right = match_of_right(graph, match_of_left);
  DMFB_EXPECTS(right.has_value());
  if (std::find(match_of_left.begin(), match_of_left.end(), kUnmatched) ==
      match_of_left.end()) {
    return {};
  }

  // Alternating BFS from every unmatched left vertex: left->right along
  // non-matching edges, right->left along matching edges. The reachable left
  // vertices Z_L satisfy |N(Z_L)| = |Z_L| - (#unmatched roots) < |Z_L|,
  // i.e. Z_L is a Hall violator (Koenig's construction).
  std::vector<char> left_reached(static_cast<std::size_t>(graph.left_count()), 0);
  std::vector<char> right_reached(static_cast<std::size_t>(graph.right_count()), 0);
  std::vector<std::int32_t> frontier;  // left vertices, in BFS order
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    if (match_of_left[static_cast<std::size_t>(a)] == kUnmatched) {
      left_reached[static_cast<std::size_t>(a)] = 1;
      frontier.push_back(a);
    }
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (const std::int32_t b : graph.neighbors_of_left(frontier[head])) {
      if (right_reached[static_cast<std::size_t>(b)]) continue;
      right_reached[static_cast<std::size_t>(b)] = 1;
      const std::int32_t back = (*right)[static_cast<std::size_t>(b)];
      // b must be matched: an unmatched reachable b would be the endpoint of
      // an augmenting path, contradicting maximality of the matching.
      DMFB_ASSERT(back != kUnmatched);
      if (!left_reached[static_cast<std::size_t>(back)]) {
        left_reached[static_cast<std::size_t>(back)] = 1;
        frontier.push_back(back);
      }
    }
  }
  std::vector<std::int32_t> violator;
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    if (left_reached[static_cast<std::size_t>(a)]) violator.push_back(a);
  }
  DMFB_ENSURES(!violator.empty());
  return violator;
}

}  // namespace dmfb::graph
