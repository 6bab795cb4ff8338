// Tests for graph algorithms: the CSR matching engines (checked against
// brute force and each other), Hall certificates, the reusable CSR matcher,
// and generic graph utilities.
#include <algorithm>
#include <initializer_list>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/csr_matching.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "matching_oracle.hpp"

namespace dmfb::graph {
namespace {

/// Builds a CSR graph from (left, right) edges, one row per left vertex.
CsrBipartiteGraph make_graph(
    std::int32_t left,
    std::initializer_list<std::pair<std::int32_t, std::int32_t>> edges) {
  CsrBipartiteGraph g;
  for (std::int32_t a = 0; a < left; ++a) {
    g.open_row();
    for (const auto& [from, to] : edges) {
      if (from == a) g.add_edge(to);
    }
  }
  return g;
}

CsrBipartiteGraph random_bipartite(Rng& rng, std::int32_t left,
                                   std::int32_t right, double edge_prob) {
  CsrBipartiteGraph g;
  for (std::int32_t a = 0; a < left; ++a) {
    g.open_row();
    for (std::int32_t b = 0; b < right; ++b) {
      if (rng.bernoulli(edge_prob)) g.add_edge(b);
    }
  }
  return g;
}

/// A maximum matching of `g` under `engine`, copied out of a fresh matcher.
struct Matched {
  std::int32_t size = 0;
  std::vector<std::int32_t> match_of_left;

  bool covers_all_left() const noexcept {
    return size == static_cast<std::int32_t>(match_of_left.size());
  }
};

Matched match_with(const CsrBipartiteGraph& g,
                   MatchingEngine engine = MatchingEngine::kHopcroftKarp) {
  CsrMatcher matcher;
  Matched m;
  m.size = matcher.maximum_matching_size(g, engine);
  const auto left = matcher.match_of_left();
  m.match_of_left.assign(left.begin(), left.end());
  return m;
}

// ------------------------------------------------------------- matching

constexpr MatchingEngine kEngines[] = {MatchingEngine::kHopcroftKarp,
                                       MatchingEngine::kKuhn,
                                       MatchingEngine::kDinic};

class MatchingEngineTest : public ::testing::TestWithParam<MatchingEngine> {};

TEST_P(MatchingEngineTest, EmptyGraphHasEmptyMatching) {
  const CsrBipartiteGraph g;
  const Matched m = match_with(g, GetParam());
  EXPECT_EQ(m.size, 0);
  EXPECT_TRUE(m.covers_all_left());
  EXPECT_TRUE(is_valid_matching(g, m.match_of_left));
}

TEST_P(MatchingEngineTest, SingleEdge) {
  const CsrBipartiteGraph g = make_graph(1, {{0, 0}});
  const Matched m = match_with(g, GetParam());
  EXPECT_EQ(m.size, 1);
  EXPECT_EQ(m.match_of_left[0], 0);
  EXPECT_TRUE(is_valid_matching(g, m.match_of_left));
}

TEST_P(MatchingEngineTest, IsolatedLeftVertexUnmatched) {
  const CsrBipartiteGraph g = make_graph(2, {{0, 0}});
  const Matched m = match_with(g, GetParam());
  EXPECT_EQ(m.size, 1);
  EXPECT_FALSE(m.covers_all_left());
  EXPECT_EQ(m.match_of_left[1], kUnmatched);
}

TEST_P(MatchingEngineTest, RequiresAugmentingPath) {
  // Greedy left-to-right would match 0-0 and strand 1; the maximum
  // matching must reassign: 0-1, 1-0.
  const CsrBipartiteGraph g = make_graph(2, {{0, 0}, {0, 1}, {1, 0}});
  const Matched m = match_with(g, GetParam());
  EXPECT_EQ(m.size, 2);
  EXPECT_TRUE(m.covers_all_left());
  EXPECT_TRUE(is_valid_matching(g, m.match_of_left));
}

TEST_P(MatchingEngineTest, PerfectMatchingOnCompleteGraph) {
  CsrBipartiteGraph g;
  for (std::int32_t a = 0; a < 5; ++a) {
    g.open_row();
    for (std::int32_t b = 0; b < 5; ++b) g.add_edge(b);
  }
  const Matched m = match_with(g, GetParam());
  EXPECT_EQ(m.size, 5);
  EXPECT_TRUE(is_valid_matching(g, m.match_of_left));
}

TEST_P(MatchingEngineTest, HallViolatorLimitsMatching) {
  // Three left vertices share the same two right neighbours: max = 2.
  const CsrBipartiteGraph g =
      make_graph(3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}});
  const Matched m = match_with(g, GetParam());
  EXPECT_EQ(m.size, 2);
}

TEST_P(MatchingEngineTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(0xBEEF + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 150; ++trial) {
    const auto left = rng.uniform_int(0, 6);
    const auto right = rng.uniform_int(0, 6);
    const CsrBipartiteGraph g =
        random_bipartite(rng, left, right, rng.uniform01());
    const Matched m = match_with(g, GetParam());
    EXPECT_TRUE(is_valid_matching(g, m.match_of_left));
    EXPECT_EQ(m.size, brute_force_matching_size(g))
        << "trial " << trial << " left=" << left << " right=" << right;
  }
}

TEST_P(MatchingEngineTest, ParityWithOtherEnginesOnLargerGraphs) {
  Rng rng(0xFACE);
  for (int trial = 0; trial < 30; ++trial) {
    const CsrBipartiteGraph g = random_bipartite(rng, 40, 35, 0.08);
    const auto size = match_with(g, GetParam()).size;
    const auto reference =
        match_with(g, MatchingEngine::kHopcroftKarp).size;
    EXPECT_EQ(size, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MatchingEngineTest,
                         ::testing::ValuesIn(kEngines),
                         [](const auto& test_info) {
                           return std::string(to_string(test_info.param)) ==
                                          "hopcroft-karp"
                                      ? std::string("HopcroftKarp")
                                      : std::string(to_string(test_info.param)) ==
                                                "kuhn"
                                            ? std::string("Kuhn")
                                            : std::string("Dinic");
                         });

TEST(Matching, EngineNames) {
  EXPECT_STREQ(to_string(MatchingEngine::kHopcroftKarp), "hopcroft-karp");
  EXPECT_STREQ(to_string(MatchingEngine::kKuhn), "kuhn");
  EXPECT_STREQ(to_string(MatchingEngine::kDinic), "dinic");
}

TEST(Matching, ValidatorCatchesCorruptPairing) {
  const CsrBipartiteGraph g = make_graph(2, {{0, 0}, {1, 1}});
  Matched m = match_with(g);
  EXPECT_TRUE(is_valid_matching(g, m.match_of_left));
  m.match_of_left[0] = 1;  // edge (0,1) does not exist
  EXPECT_FALSE(is_valid_matching(g, m.match_of_left));
  // Right vertex 0 used twice, over real edges.
  const CsrBipartiteGraph shared = make_graph(2, {{0, 0}, {1, 0}});
  EXPECT_FALSE(is_valid_matching(shared, std::vector<std::int32_t>{0, 0}));
  // Wrong length.
  EXPECT_FALSE(is_valid_matching(g, std::vector<std::int32_t>{0}));
}

// ----------------------------------------------------------- hall_violator

TEST(HallViolator, EmptyWhenCovered) {
  const CsrBipartiteGraph g = make_graph(2, {{0, 0}, {1, 1}});
  const Matched m = match_with(g);
  EXPECT_TRUE(hall_violator(g, m.match_of_left).empty());
}

TEST(HallViolator, FindsDeficientSet) {
  // Left {0,1,2} all map to right {0,1} only: violator must have >= 3
  // vertices whose neighbourhood is {0,1}.
  const CsrBipartiteGraph g = make_graph(
      4, {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}, {3, 2}});
  const Matched m = match_with(g);
  EXPECT_EQ(m.size, 3);
  const auto violator = hall_violator(g, m.match_of_left);
  ASSERT_FALSE(violator.empty());
  // Verify the Hall property directly: |N(S)| < |S|.
  std::set<std::int32_t> neighborhood;
  for (const std::int32_t a : violator) {
    for (const std::int32_t b : g.neighbors_of_left(a)) {
      neighborhood.insert(b);
    }
  }
  EXPECT_LT(neighborhood.size(), violator.size());
}

TEST(HallViolator, RejectsInvalidOrNonMaximumMatchings) {
  // 0-0 alone leaves the augmenting path 1-0-0-1: not maximum.
  const CsrBipartiteGraph g = make_graph(2, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_THROW(hall_violator(g, std::vector<std::int32_t>{0, kUnmatched}),
               ContractViolation);
  EXPECT_THROW(hall_violator(g, std::vector<std::int32_t>{0, 0}),
               ContractViolation);
}

TEST(HallViolator, PropertyOnRandomDeficientGraphs) {
  Rng rng(0xA11CE);
  int deficient_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const CsrBipartiteGraph g = random_bipartite(
        rng, rng.uniform_int(1, 8), rng.uniform_int(0, 5), 0.3);
    const Matched m = match_with(g);
    const auto violator = hall_violator(g, m.match_of_left);
    if (m.covers_all_left()) {
      EXPECT_TRUE(violator.empty());
      continue;
    }
    ++deficient_seen;
    ASSERT_FALSE(violator.empty());
    std::set<std::int32_t> neighborhood;
    for (const std::int32_t a : violator) {
      for (const std::int32_t b : g.neighbors_of_left(a)) {
        neighborhood.insert(b);
      }
    }
    EXPECT_LT(neighborhood.size(), violator.size());
  }
  EXPECT_GT(deficient_seen, 20);  // the sweep actually exercised the path
}

// ------------------------------------------------------------------- Graph

TEST(Graph, BfsDistancesOnPath) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Graph, BfsUnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], -1);
}

TEST(Graph, ShortestPathEndpoints) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  const auto path = shortest_path(g, 0, 2);
  ASSERT_EQ(path.size(), 3u);  // 0-1-2 beats 0-3-4-2
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 2);
}

TEST(Graph, ShortestPathToSelf) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(shortest_path(g, 1, 1), (std::vector<std::int32_t>{1}));
}

TEST(Graph, ShortestPathEmptyWhenDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(Graph, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto components = connected_components(g);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<std::int32_t>{3, 4}));
  EXPECT_EQ(components[2], (std::vector<std::int32_t>{5}));
}

TEST(Graph, IsConnected) {
  Graph connected(3);
  connected.add_edge(0, 1);
  connected.add_edge(1, 2);
  EXPECT_TRUE(is_connected(connected));
  Graph disconnected(3);
  disconnected.add_edge(0, 1);
  EXPECT_FALSE(is_connected(disconnected));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Graph, RejectsSelfLoops) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), ContractViolation);
}

// ----------------------------------------------------------- covering_walk

TEST(CoveringWalk, VisitsEveryReachableVertex) {
  Graph g(7);
  for (int i = 0; i + 1 < 7; ++i) g.add_edge(i, i + 1);
  const auto walk = covering_walk(g, 0);
  std::set<std::int32_t> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited.size(), 7u);
}

TEST(CoveringWalk, ConsecutiveVerticesAdjacent) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.uniform_int(2, 20);
    Graph g(n);
    std::set<std::pair<int, int>> edges;
    // random connected graph: a random spanning tree plus extras
    for (int v = 1; v < n; ++v) {
      const int u = rng.uniform_int(0, v - 1);
      g.add_edge(u, v);
      edges.insert({u, v});
    }
    for (int extra = 0; extra < n / 2; ++extra) {
      const int u = rng.uniform_int(0, n - 1);
      const int v = rng.uniform_int(0, n - 1);
      if (u != v && !edges.contains({std::min(u, v), std::max(u, v)})) {
        g.add_edge(u, v);
        edges.insert({std::min(u, v), std::max(u, v)});
      }
    }
    const auto walk = covering_walk(g, 0);
    std::set<std::int32_t> visited(walk.begin(), walk.end());
    EXPECT_EQ(visited.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 1; i < walk.size(); ++i) {
      const auto nbrs = g.neighbors(walk[i - 1]);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), walk[i]), nbrs.end());
    }
  }
}

TEST(CoveringWalk, LengthBounded) {
  Graph g(10);
  for (int i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1);
  const auto walk = covering_walk(g, 0);
  EXPECT_LE(walk.size(), 2u * 10u);
}

TEST(CoveringWalk, SingleVertex) {
  const Graph g(1);
  EXPECT_EQ(covering_walk(g, 0), (std::vector<std::int32_t>{0}));
}

TEST(CoveringWalk, OnlyReachableComponent) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  const auto walk = covering_walk(g, 0);
  const std::set<std::int32_t> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited, (std::set<std::int32_t>{0, 1}));
}

// ------------------------------------------------------------- CsrMatcher

TEST(CsrMatcher, EmptyGraphCoversTrivially) {
  CsrBipartiteGraph g;
  CsrMatcher matcher;
  EXPECT_EQ(matcher.maximum_matching_size(g, MatchingEngine::kHopcroftKarp),
            0);
  EXPECT_TRUE(matcher.covers_all_left(g, MatchingEngine::kKuhn));
}

TEST(CsrMatcher, AgreesWithLegacyEnginesOnRandomGraphs) {
  // One matcher deliberately reused across instances and engines must give
  // every engine the exhaustive maximum, whatever the previous call left in
  // its buffers.
  Rng rng(0xC5A);
  CsrMatcher matcher;
  for (int trial = 0; trial < 60; ++trial) {
    const auto left = rng.uniform_int(0, 12);
    const auto right = rng.uniform_int(0, 12);
    const CsrBipartiteGraph csr =
        random_bipartite(rng, left, right, rng.uniform01());
    const std::int32_t expected = brute_force_matching_size(csr);
    for (const MatchingEngine engine : kEngines) {
      EXPECT_EQ(matcher.maximum_matching_size(csr, engine), expected)
          << "trial=" << trial << " engine=" << to_string(engine);
    }
  }
}

TEST(CsrMatcher, MatchOfLeftIsAValidMatching) {
  Rng rng(0x5EED);
  CsrMatcher matcher;
  for (int trial = 0; trial < 30; ++trial) {
    const CsrBipartiteGraph csr = random_bipartite(rng, 10, 8, 0.3);
    for (const MatchingEngine engine : kEngines) {
      const std::int32_t size = matcher.maximum_matching_size(csr, engine);
      const auto match = matcher.match_of_left();
      ASSERT_EQ(match.size(), static_cast<std::size_t>(csr.left_count()));
      EXPECT_TRUE(is_valid_matching(csr, match));
      EXPECT_EQ(std::count_if(match.begin(), match.end(),
                              [](std::int32_t b) { return b != kUnmatched; }),
                size);
    }
  }
}

TEST(CsrBipartiteGraph, ClearRewindsWithoutShrinking) {
  CsrBipartiteGraph g;
  g.open_row();
  g.add_edge(4);
  g.add_edge(2);
  EXPECT_EQ(g.left_count(), 1);
  EXPECT_EQ(g.right_count(), 5);
  EXPECT_EQ(g.open_row_degree(), 2);
  g.clear();
  EXPECT_EQ(g.left_count(), 0);
  EXPECT_EQ(g.right_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  g.open_row();
  EXPECT_EQ(g.open_row_degree(), 0);
  g.add_edge(0);
  EXPECT_EQ(g.right_count(), 1);
  EXPECT_EQ(g.neighbors_of_left(0).size(), 1u);
}

}  // namespace
}  // namespace dmfb::graph
