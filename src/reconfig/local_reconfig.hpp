// Local reconfiguration via maximal bipartite matching (paper Section 6).
//
// Given a tested array (health state set), build the bipartite graph
// BG(A, B, E): A = faulty primary cells that matter under the coverage
// policy, B = healthy replacement cells, edges = physical adjacency. The
// chip is repairable iff a maximum matching saturates A (Hall's condition);
// the matching itself is the spare-assignment plan. Thanks to microfluidic
// locality the plan is purely local: each faulty cell's duties move one hop
// to its matched spare, and no fault-free module is disturbed (contrast
// with shifted replacement). The graph is defined once, here:
// for_each_candidate is the candidate rule (sim::ChipDesign's skeleton rows
// come from it) and RepairGraph the one builder and matcher, for
// LocalReconfigurer and sim::OperationalState::plan alike.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "biochip/hex_array.hpp"
#include "graph/csr_matching.hpp"

namespace dmfb::reconfig {

using biochip::HexArray;
using hex::CellIndex;

/// Which faulty primaries must be covered for the chip to count as repaired.
enum class CoveragePolicy : std::uint8_t {
  /// Every faulty primary cell needs a spare (application-independent view;
  /// used for the Fig. 7/9/10 design-space yields).
  kAllFaultyPrimaries,
  /// Only faulty primaries marked kAssayUsed need a spare (the Fig. 12/13
  /// view: unused primaries may simply stay broken).
  kUsedFaultyPrimaries,
};

const char* to_string(CoveragePolicy policy) noexcept;

/// Which cells may take over a faulty primary's function (Section 4 names
/// both categories of reconfiguration).
enum class ReplacementPool : std::uint8_t {
  /// Interstitial spares only — the paper's headline mechanism.
  kSparesOnly,
  /// Spares plus healthy *unused* primary cells (category-1 reconfiguration
  /// combined with the spares; Fig. 12 distinguishes unused primaries).
  kSparesAndUnusedPrimaries,
};

const char* to_string(ReplacementPool pool) noexcept;

/// One faulty-cell -> spare-cell replacement.
struct Replacement {
  CellIndex faulty = hex::kInvalidCell;
  CellIndex spare = hex::kInvalidCell;

  bool operator==(const Replacement&) const = default;
};

/// Result of a reconfiguration attempt.
struct ReconfigPlan {
  bool success = false;
  std::vector<Replacement> replacements;
  /// Faulty cells that could not be assigned a spare (empty on success).
  std::vector<CellIndex> unrepairable;

  /// Replacement spare for `faulty`, or kInvalidCell.
  CellIndex replacement_for(CellIndex faulty) const noexcept;
};

/// The replacement-candidate rule, health aside (the caller's per-run
/// filter): calls `fn` on each neighbour of `primary` that may take over its
/// duty under `pool`, in order — spares, then, for the spares-and-unused
/// pool, unused primaries.
template <typename Fn>
void for_each_candidate(const HexArray& array, CellIndex primary,
                        ReplacementPool pool, Fn&& fn) {
  for (const CellIndex spare : array.spare_neighbors_of(primary)) fn(spare);
  if (pool == ReplacementPool::kSparesAndUnusedPrimaries) {
    for (const CellIndex neighbor : array.primary_neighbors_of(primary)) {
      if (array.usage(neighbor) == biochip::CellUsage::kUnused) fn(neighbor);
    }
  }
}

/// BG(A, B, E) plus Hopcroft-Karp in scratch reused across calls (no
/// steady-state allocation). Not thread-safe; use one per thread.
class RepairGraph {
 public:
  /// Scratch for arrays of `cell_count` cells.
  explicit RepairGraph(std::int32_t cell_count);

  /// Builds BG(A, B, E) with A = `cover` and runs Hopcroft-Karp; true iff
  /// the matching saturates A. Row i holds, in order, each cell that
  /// `candidates(cover[i], fn)` passes to `fn` (the design-time candidates,
  /// in for_each_candidate's order) unless `is_faulty` holds for it.
  /// Replacement cells are numbered as first discovered, so the plan
  /// depends on nothing else.
  template <typename Candidates, typename IsFaulty>
  bool match(std::span<const CellIndex> cover, Candidates&& candidates,
             IsFaulty&& is_faulty) {
    if (cover.empty()) return true;
    graph_.clear();
    right_cells_.clear();
    for (const CellIndex faulty : cover) {
      graph_.open_row();
      candidates(faulty, [&](CellIndex candidate) {
        if (is_faulty(candidate)) return;
        std::int32_t& b = right_of_cell_[static_cast<std::size_t>(candidate)];
        if (b < 0) {
          b = static_cast<std::int32_t>(right_cells_.size());
          right_cells_.push_back(candidate);
        }
        graph_.add_edge(b);
      });
    }
    for (const CellIndex cell : right_cells_) {
      right_of_cell_[static_cast<std::size_t>(cell)] = -1;
    }
    return matcher_.covers_all_left(graph_);
  }

  /// Writes the plan of the last match() over the same `cover` into
  /// `plan`: matched rows become replacements, the rest unrepairable, both
  /// in cover order.
  void write_plan(std::span<const CellIndex> cover, ReconfigPlan& plan) const;

 private:
  graph::CsrBipartiteGraph graph_;
  graph::CsrMatcher matcher_;
  std::vector<std::int32_t> right_of_cell_;  // cell -> B index, else -1
  std::vector<CellIndex> right_cells_;       // B index -> cell
};

/// Matching-based reconfigurer (the paper's method) on a HexArray's health
/// state, through RepairGraph.
class LocalReconfigurer {
 public:
  explicit LocalReconfigurer(
      CoveragePolicy policy = CoveragePolicy::kAllFaultyPrimaries,
      ReplacementPool pool = ReplacementPool::kSparesOnly);

  CoveragePolicy policy() const noexcept { return policy_; }
  ReplacementPool pool() const noexcept { return pool_; }

  /// Computes the spare-assignment plan for the array's current fault state.
  ReconfigPlan plan(const HexArray& array) const;

  /// plan(array).success without the plan, after a cheap pre-check (a
  /// covered primary with no healthy candidate fails at once). Structural
  /// Monte-Carlo runs use sim::FaultState instead; this stays for the core
  /// facade and because CI's ratio gate times it (the
  /// BM_McYieldRun_*Legacy rows of bench_sim_session), and goes with that
  /// gate.
  bool feasible(const HexArray& array) const;

 private:
  CoveragePolicy policy_;
  ReplacementPool pool_;
};

/// Greedy first-fit baseline: scan faulty cells in index order and grab the
/// first healthy adjacent spare not yet taken. Suboptimal — the ablation
/// bench quantifies the yield it loses versus optimal matching.
class GreedyReconfigurer {
 public:
  explicit GreedyReconfigurer(
      CoveragePolicy policy = CoveragePolicy::kAllFaultyPrimaries);

  CoveragePolicy policy() const noexcept { return policy_; }

  ReconfigPlan plan(const HexArray& array) const;
  bool feasible(const HexArray& array) const;

 private:
  CoveragePolicy policy_;
};

}  // namespace dmfb::reconfig
