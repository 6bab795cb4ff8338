// Maximum bipartite matching — the feasibility engine for local
// reconfiguration.
//
// The paper (Section 6, Fig. 8): faulty primary cells can all be repaired
// iff a maximum matching of the faulty-primary x healthy-spare adjacency
// graph saturates every faulty primary. Every engine runs over one graph
// representation, graph::CsrBipartiteGraph, through graph::CsrMatcher
// (csr_matching.hpp): Hopcroft-Karp (default), Kuhn's augmenting paths,
// Dinic (Hopcroft-Karp phases with current-arc cursors — the unit-network
// blocking flow with the flow bookkeeping specialised away), and the
// Cherkassky-Goldberg double-push (push-relabel) matcher. All four compute
// a maximum matching, so sizes and repair verdicts agree on every instance;
// which maximum matching comes back is engine-specific. The ablation bench
// compares their speed. kAuto defers the choice to a size heuristic
// (resolve_engine), which higher layers may refine with workload knowledge
// (sim::Session adds defect density).
//
// is_valid_matching and hall_violator check and certify a matching given
// as its left-side array, whichever engine (or caller) produced it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace dmfb::graph {

class CsrBipartiteGraph;

/// Which algorithm computes the matching.
enum class MatchingEngine : std::uint8_t {
  kHopcroftKarp,
  kKuhn,
  kDinic,
  kPushRelabel,
  /// Sentinel: pick an engine per instance (resolve_engine). Every API that
  /// receives kAuto resolves it deterministically, so results stay
  /// reproducible for a fixed input.
  kAuto,
};

const char* to_string(MatchingEngine engine) noexcept;

/// Left-side size above which kAuto picks push-relabel: augmenting-path
/// engines win on the small sparse instances the per-run Monte-Carlo filter
/// produces, push-relabel on large ones (its documented scaling advantage).
inline constexpr std::int32_t kAutoPushRelabelLeftCount = 64;

/// Resolves kAuto to a concrete engine for an instance with `left_count`
/// left vertices; concrete engines pass through unchanged. Deterministic:
/// the same instance always resolves to the same engine.
MatchingEngine resolve_engine(MatchingEngine engine,
                              std::int32_t left_count) noexcept;

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
