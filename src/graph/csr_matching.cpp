#include "graph/csr_matching.hpp"

#include <limits>

#include "common/contracts.hpp"

namespace dmfb::graph {

namespace {
constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max();
}  // namespace

std::int32_t CsrMatcher::maximum_matching_size(const CsrBipartiteGraph& graph,
                                               MatchingEngine engine) {
  match_left_.assign(static_cast<std::size_t>(graph.left_count()), kUnmatched);
  match_right_.assign(static_cast<std::size_t>(graph.right_count()),
                      kUnmatched);
  switch (resolve_engine(engine, graph.left_count())) {
    case MatchingEngine::kHopcroftKarp: return run_hopcroft_karp(graph);
    case MatchingEngine::kKuhn: return run_kuhn(graph);
    case MatchingEngine::kDinic: return run_dinic(graph);
    case MatchingEngine::kPushRelabel: return run_push_relabel(graph);
    case MatchingEngine::kAuto: break;  // resolved above
  }
  DMFB_ASSERT(!"unknown matching engine");
  return 0;
}

// ------------------------------------------------------------------- Kuhn

bool CsrMatcher::kuhn_augment(const CsrBipartiteGraph& graph, std::int32_t a) {
  for (const std::int32_t b : graph.neighbors_of_left(a)) {
    auto& seen = visit_stamp_[static_cast<std::size_t>(b)];
    if (seen == stamp_) continue;
    seen = stamp_;
    const std::int32_t back = match_right_[static_cast<std::size_t>(b)];
    if (back == kUnmatched || kuhn_augment(graph, back)) {
      match_left_[static_cast<std::size_t>(a)] = b;
      match_right_[static_cast<std::size_t>(b)] = a;
      return true;
    }
  }
  return false;
}

std::int32_t CsrMatcher::run_kuhn(const CsrBipartiteGraph& graph) {
  // Epoch stamps replace the per-phase visited re-initialisation; the stamp
  // array only reallocates when a larger right side appears.
  if (visit_stamp_.size() < static_cast<std::size_t>(graph.right_count())) {
    visit_stamp_.assign(static_cast<std::size_t>(graph.right_count()), 0);
    stamp_ = 0;
  }
  std::int32_t size = 0;
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    ++stamp_;
    if (stamp_ == kInf) {  // wrapped: re-zero once per ~2^31 phases
      visit_stamp_.assign(visit_stamp_.size(), 0);
      stamp_ = 1;
    }
    if (kuhn_augment(graph, a)) ++size;
  }
  return size;
}

// ---------------------------------------------------------- Hopcroft-Karp

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

std::int32_t CsrMatcher::run_hopcroft_karp(const CsrBipartiteGraph& graph) {
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

// ------------------------------------------------------------------ Dinic
//
// On the implicit unit network (source -> left, edges, right -> sink) a
// blocking flow per level graph is exactly a maximal set of vertex-disjoint
// shortest augmenting paths, so this is Dinic's algorithm with the flow
// bookkeeping specialised away. The current-arc cursor gives the blocking
// flow its amortised-linear phase cost.

bool CsrMatcher::dinic_augment(const CsrBipartiteGraph& graph, std::int32_t a) {
  const auto neighbors = graph.neighbors_of_left(a);
  auto& cursor = cursor_[static_cast<std::size_t>(a)];
  for (; cursor < static_cast<std::int32_t>(neighbors.size()); ++cursor) {
    const std::int32_t b = neighbors[static_cast<std::size_t>(cursor)];
    const std::int32_t back = match_right_[static_cast<std::size_t>(b)];
    const bool advance = back == kUnmatched ||
                         (layer_[static_cast<std::size_t>(back)] ==
                              layer_[static_cast<std::size_t>(a)] + 1 &&
                          dinic_augment(graph, back));
    if (advance) {
      match_left_[static_cast<std::size_t>(a)] = b;
      match_right_[static_cast<std::size_t>(b)] = a;
      return true;
    }
  }
  layer_[static_cast<std::size_t>(a)] = kInf;  // saturated this phase
  return false;
}

std::int32_t CsrMatcher::run_dinic(const CsrBipartiteGraph& graph) {
  std::int32_t size = 0;
  while (hk_bfs(graph)) {
    cursor_.assign(static_cast<std::size_t>(graph.left_count()), 0);
    for (std::int32_t a = 0; a < graph.left_count(); ++a) {
      if (match_left_[static_cast<std::size_t>(a)] == kUnmatched &&
          dinic_augment(graph, a)) {
        ++size;
      }
    }
  }
  return size;
}

}  // namespace dmfb::graph
