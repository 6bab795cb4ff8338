// Local reconfiguration via maximal bipartite matching (paper Section 6).
//
// Given a tested array (health state set), build the bipartite graph
// BG(A, B, E): A = faulty primary cells that matter under the coverage
// policy, B = healthy spare cells, edges = physical adjacency. The graph is
// a graph::CsrBipartiteGraph and the matching comes from graph::CsrMatcher
// (Hopcroft-Karp), as in sim::OperationalState::plan. The chip is
// repairable iff a maximum matching saturates A; the matching itself is the
// spare-assignment plan. Thanks to microfluidic locality the plan is purely
// local: each faulty cell's duties move one hop to its matched spare, and no
// fault-free module is disturbed (contrast with shifted replacement).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "biochip/hex_array.hpp"

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
};

/// Result of a reconfiguration attempt.
struct ReconfigPlan {
  bool success = false;
  std::vector<Replacement> replacements;
  /// Faulty cells that could not be assigned a spare (empty on success);
  /// forms a Hall violator together with its spare neighbourhood.
  std::vector<CellIndex> unrepairable;

  /// Replacement spare for `faulty`, or kInvalidCell.
  CellIndex replacement_for(CellIndex faulty) const noexcept;
};

/// Matching-based reconfigurer (the paper's method).
class LocalReconfigurer {
 public:
  explicit LocalReconfigurer(
      CoveragePolicy policy = CoveragePolicy::kAllFaultyPrimaries,
      ReplacementPool pool = ReplacementPool::kSparesOnly);

  CoveragePolicy policy() const noexcept { return policy_; }
  ReplacementPool pool() const noexcept { return pool_; }

  /// Computes the spare-assignment plan for the array's current fault state.
  ReconfigPlan plan(const HexArray& array) const;

  /// Fast feasibility check (no plan materialisation) for Monte-Carlo loops.
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

/// Faulty primaries that must be covered under `policy`.
std::vector<CellIndex> cells_to_cover(const HexArray& array,
                                      CoveragePolicy policy);

/// Replacement neighbourhood N(S) under `pool`: the healthy replacement
/// candidates adjacent to at least one cell of `cells`, in first-discovery
/// order.
std::vector<CellIndex> replacement_neighborhood(
    const HexArray& array, std::span<const CellIndex> cells,
    ReplacementPool pool);

/// Certificate extraction for a failed matching-based plan: the covered
/// faulty primaries reachable from `plan.unrepairable` via alternating
/// paths through the plan's matching — König/Hall's deficiency witness.
/// The returned set S (cell-index order) satisfies
/// |replacement_neighborhood(array, S, pool)| < |S|, i.e. it is a directly
/// checkable proof that no spare assignment can exist; S is empty iff
/// plan.success. Preconditions (ContractViolation otherwise): `array` must
/// still carry the fault state the plan was computed for, `pool` must match
/// the planner's, and the plan's matching must be *maximum* — i.e. a
/// LocalReconfigurer plan; a failed GreedyReconfigurer plan proves nothing
/// and is rejected, not certified.
std::vector<CellIndex> hall_violator(const HexArray& array,
                                     const ReconfigPlan& plan,
                                     ReplacementPool pool);

}  // namespace dmfb::reconfig
