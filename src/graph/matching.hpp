// Maximum bipartite matching — the feasibility engine for local
// reconfiguration.
//
// The paper (Section 6, Fig. 8): faulty primary cells can all be repaired
// iff a maximum matching of the faulty-primary x healthy-spare adjacency
// graph saturates every faulty primary. The matching is Hopcroft-Karp over
// graph::CsrBipartiteGraph, through graph::CsrMatcher (csr_matching.hpp).
// Any maximum-matching algorithm gives the same verdict, so the repo keeps
// one.
//
// is_valid_matching and hall_violator check and certify a matching given
// as its left-side array, whoever produced it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dmfb::graph {

class CsrBipartiteGraph;

/// The matching algorithm, down to its one value. Exists only for
/// perfbench/layers.cpp, which still names it (with sim::YieldQuery::engine,
/// campaign::GridPoint::engine and campaign::spec_token), and is removed in
/// the next benchmark change.
enum class MatchingEngine : std::uint8_t {
  kHopcroftKarp,
};

/// Marks an uncovered vertex in a match_of_left / match_of_right array.
inline constexpr std::int32_t kUnmatched = -1;

/// True iff `match_of_left` (one entry per left vertex: its right partner
/// or kUnmatched) is a matching of `graph`: every partner is an edge of its
/// row and no right vertex is used twice.
bool is_valid_matching(const CsrBipartiteGraph& graph,
                       std::span<const std::int32_t> match_of_left);

/// When the matching fails to cover the left side, returns a Hall
/// violator: a set S of left vertices (ascending) with |N(S)| < |S| — the
/// deficiency witness, i.e. the cluster of faulty cells that cannot all be
/// repaired. Returns an empty vector when the matching covers all left
/// vertices. Throws ContractViolation unless the matching is valid and
/// maximum (a non-maximum matching proves nothing).
std::vector<std::int32_t> hall_violator(
    const CsrBipartiteGraph& graph,
    std::span<const std::int32_t> match_of_left);

}  // namespace dmfb::graph
