#include "reconfig/local_reconfig.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/contracts.hpp"
#include "graph/csr_matching.hpp"

namespace dmfb::reconfig {

const char* to_string(CoveragePolicy policy) noexcept {
  switch (policy) {
    case CoveragePolicy::kAllFaultyPrimaries:
      return "cover-all-faulty-primaries";
    case CoveragePolicy::kUsedFaultyPrimaries:
      return "cover-used-faulty-primaries";
  }
  return "?";
}

const char* to_string(ReplacementPool pool) noexcept {
  switch (pool) {
    case ReplacementPool::kSparesOnly:
      return "spares-only";
    case ReplacementPool::kSparesAndUnusedPrimaries:
      return "spares-and-unused-primaries";
  }
  return "?";
}

CellIndex ReconfigPlan::replacement_for(CellIndex faulty) const noexcept {
  for (const Replacement& replacement : replacements) {
    if (replacement.faulty == faulty) return replacement.spare;
  }
  return hex::kInvalidCell;
}

std::vector<CellIndex> cells_to_cover(const HexArray& array,
                                      CoveragePolicy policy) {
  std::vector<CellIndex> cover;
  for (const CellIndex cell : array.primaries()) {
    if (array.health(cell) != biochip::CellHealth::kFaulty) continue;
    if (policy == CoveragePolicy::kUsedFaultyPrimaries &&
        array.usage(cell) != biochip::CellUsage::kAssayUsed) {
      continue;
    }
    cover.push_back(cell);
  }
  return cover;
}

namespace {

/// True iff `cell` may host a replacement under `pool`.
bool is_replacement_candidate(const HexArray& array, CellIndex cell,
                              ReplacementPool pool) {
  if (array.health(cell) == biochip::CellHealth::kFaulty) return false;
  if (array.role(cell) == biochip::CellRole::kSpare) return true;
  return pool == ReplacementPool::kSparesAndUnusedPrimaries &&
         array.usage(cell) == biochip::CellUsage::kUnused;
}

/// Invokes `fn` on every replacement candidate adjacent to `faulty`.
template <typename Fn>
void for_each_candidate(const HexArray& array, CellIndex faulty,
                        ReplacementPool pool, Fn&& fn) {
  for (const CellIndex spare : array.spare_neighbors_of(faulty)) {
    if (is_replacement_candidate(array, spare, pool)) fn(spare);
  }
  if (pool == ReplacementPool::kSparesAndUnusedPrimaries) {
    for (const CellIndex primary : array.primary_neighbors_of(faulty)) {
      if (is_replacement_candidate(array, primary, pool)) fn(primary);
    }
  }
}

/// BG(A, B, E) with A = `cover`, B = the healthy replacement candidates
/// adjacent to at least one covered cell, numbered in first-discovery
/// order; edges follow for_each_candidate's order within each row.
struct ReconfigGraph {
  static constexpr std::int32_t kNotCandidate = -1;

  graph::CsrBipartiteGraph graph;
  std::vector<CellIndex> right_cells;       // B-index -> array cell
  std::vector<std::int32_t> right_of_cell;  // array cell -> B-index
};

ReconfigGraph build_reconfig_graph(const HexArray& array,
                                   std::span<const CellIndex> cover,
                                   ReplacementPool pool) {
  ReconfigGraph rg;
  rg.right_of_cell.assign(static_cast<std::size_t>(array.cell_count()),
                          ReconfigGraph::kNotCandidate);
  for (const CellIndex faulty : cover) {
    rg.graph.open_row();
    for_each_candidate(array, faulty, pool, [&](CellIndex candidate) {
      auto& b = rg.right_of_cell[static_cast<std::size_t>(candidate)];
      if (b == ReconfigGraph::kNotCandidate) {
        b = static_cast<std::int32_t>(rg.right_cells.size());
        rg.right_cells.push_back(candidate);
      }
      rg.graph.add_edge(b);
    });
  }
  return rg;
}

}  // namespace

LocalReconfigurer::LocalReconfigurer(CoveragePolicy policy,
                                     ReplacementPool pool)
    : policy_(policy), pool_(pool) {}

ReconfigPlan LocalReconfigurer::plan(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  ReconfigPlan result;
  if (cover.empty()) {
    result.success = true;
    return result;
  }
  const ReconfigGraph rg = build_reconfig_graph(array, cover, pool_);
  graph::CsrMatcher matcher;
  result.success = matcher.covers_all_left(rg.graph);
  const auto match_of_left = matcher.match_of_left();
  for (std::size_t a = 0; a < cover.size(); ++a) {
    const std::int32_t b = match_of_left[a];
    if (b == graph::kUnmatched) {
      result.unrepairable.push_back(cover[a]);
    } else {
      result.replacements.push_back(
          {cover[a], rg.right_cells[static_cast<std::size_t>(b)]});
    }
  }
  DMFB_ENSURES(result.success == result.unrepairable.empty());
  return result;
}

bool LocalReconfigurer::feasible(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  if (cover.empty()) return true;
  // Cheap necessary condition: every covered cell needs >= 1 candidate.
  // Rejects most infeasible instances before matching.
  for (const CellIndex faulty : cover) {
    bool has_candidate = false;
    for_each_candidate(array, faulty, pool_,
                       [&](CellIndex) { has_candidate = true; });
    if (!has_candidate) return false;
  }
  const ReconfigGraph rg = build_reconfig_graph(array, cover, pool_);
  return graph::CsrMatcher().covers_all_left(rg.graph);
}

std::vector<CellIndex> replacement_neighborhood(
    const HexArray& array, std::span<const CellIndex> cells,
    ReplacementPool pool) {
  std::vector<CellIndex> neighborhood;
  std::unordered_set<CellIndex> seen;
  for (const CellIndex cell : cells) {
    for_each_candidate(array, cell, pool, [&](CellIndex candidate) {
      if (seen.insert(candidate).second) neighborhood.push_back(candidate);
    });
  }
  return neighborhood;
}

std::vector<CellIndex> hall_violator(const HexArray& array,
                                     const ReconfigPlan& plan,
                                     ReplacementPool pool) {
  if (plan.success) return {};
  // Rebuild BG(A, B, E) for the plan's cover set and replay the plan into
  // its match_of_left, then delegate the Koenig closure to
  // graph::hall_violator — inheriting its checks that the plan is a valid
  // matching of this array state and, via its alternating BFS invariant,
  // that it is maximum (a greedy / non-maximum plan throws
  // ContractViolation instead of yielding a bogus certificate).
  std::vector<CellIndex> cover;
  cover.reserve(plan.replacements.size() + plan.unrepairable.size());
  for (const Replacement& replacement : plan.replacements) {
    cover.push_back(replacement.faulty);
  }
  cover.insert(cover.end(), plan.unrepairable.begin(),
               plan.unrepairable.end());
  std::sort(cover.begin(), cover.end());  // cells_to_cover order

  const ReconfigGraph rg = build_reconfig_graph(array, cover, pool);
  std::vector<std::int32_t> match_of_left(cover.size(), graph::kUnmatched);
  for (std::size_t a = 0; a < cover.size(); ++a) {
    const CellIndex spare = plan.replacement_for(cover[a]);
    if (spare == hex::kInvalidCell) continue;
    // The plan must belong to this array state and pool, or its spare is
    // not a candidate of the rebuilt graph.
    DMFB_EXPECTS(spare >= 0 && spare < array.cell_count() &&
                 rg.right_of_cell[static_cast<std::size_t>(spare)] !=
                     ReconfigGraph::kNotCandidate);
    match_of_left[a] = rg.right_of_cell[static_cast<std::size_t>(spare)];
  }

  std::vector<CellIndex> violator;
  for (const std::int32_t a : graph::hall_violator(rg.graph, match_of_left)) {
    violator.push_back(cover[static_cast<std::size_t>(a)]);
  }
  return violator;
}

GreedyReconfigurer::GreedyReconfigurer(CoveragePolicy policy)
    : policy_(policy) {}

ReconfigPlan GreedyReconfigurer::plan(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  ReconfigPlan result;
  std::vector<char> taken(static_cast<std::size_t>(array.cell_count()), 0);
  for (const CellIndex faulty : cover) {
    CellIndex chosen = hex::kInvalidCell;
    for (const CellIndex spare : array.spare_neighbors_of(faulty)) {
      if (array.health(spare) == biochip::CellHealth::kFaulty) continue;
      if (taken[static_cast<std::size_t>(spare)]) continue;
      chosen = spare;
      break;
    }
    if (chosen == hex::kInvalidCell) {
      result.unrepairable.push_back(faulty);
    } else {
      taken[static_cast<std::size_t>(chosen)] = 1;
      result.replacements.push_back({faulty, chosen});
    }
  }
  result.success = result.unrepairable.empty();
  return result;
}

bool GreedyReconfigurer::feasible(const HexArray& array) const {
  return plan(array).success;
}

}  // namespace dmfb::reconfig
