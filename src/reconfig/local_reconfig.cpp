#include "reconfig/local_reconfig.hpp"

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

RepairGraph::RepairGraph(std::int32_t cell_count)
    : right_of_cell_(static_cast<std::size_t>(cell_count), -1) {}

void RepairGraph::write_plan(std::span<const CellIndex> cover,
                             ReconfigPlan& plan) const {
  plan.replacements.clear();
  plan.unrepairable.clear();
  const std::span<const std::int32_t> match_of_left = matcher_.match_of_left();
  for (std::size_t a = 0; a < cover.size(); ++a) {
    const std::int32_t b = match_of_left[a];
    if (b == graph::kUnmatched) {
      plan.unrepairable.push_back(cover[a]);
    } else {
      plan.replacements.push_back(
          {cover[a], right_cells_[static_cast<std::size_t>(b)]});
    }
  }
  plan.success = plan.unrepairable.empty();
}

LocalReconfigurer::LocalReconfigurer(CoveragePolicy policy,
                                     ReplacementPool pool)
    : policy_(policy), pool_(pool) {}

namespace {

bool is_faulty(const HexArray& array, CellIndex cell) {
  return array.health(cell) == biochip::CellHealth::kFaulty;
}

/// Faulty primaries that must be covered under `policy`, ascending.
std::vector<CellIndex> cells_to_cover(const HexArray& array,
                                      CoveragePolicy policy) {
  std::vector<CellIndex> cover;
  for (const CellIndex cell : array.primaries()) {
    if (is_faulty(array, cell) &&
        (policy == CoveragePolicy::kAllFaultyPrimaries ||
         array.usage(cell) == biochip::CellUsage::kAssayUsed)) {
      cover.push_back(cell);
    }
  }
  return cover;
}

/// repair.match() of `cover` over `array`'s candidates and health.
bool match_array(RepairGraph& repair, const HexArray& array,
                 std::span<const CellIndex> cover, ReplacementPool pool) {
  return repair.match(
      cover,
      [&](CellIndex faulty, auto&& fn) {
        for_each_candidate(array, faulty, pool, fn);
      },
      [&](CellIndex cell) { return is_faulty(array, cell); });
}

}  // namespace

ReconfigPlan LocalReconfigurer::plan(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  RepairGraph repair(array.cell_count());
  match_array(repair, array, cover, pool_);
  ReconfigPlan result;
  repair.write_plan(cover, result);
  return result;
}

bool LocalReconfigurer::feasible(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  if (cover.empty()) return true;
  // Cheap necessary condition: every covered cell needs >= 1 healthy
  // candidate. Rejects most infeasible instances before matching.
  for (const CellIndex faulty : cover) {
    bool has_candidate = false;
    for_each_candidate(array, faulty, pool_, [&](CellIndex candidate) {
      has_candidate = has_candidate || !is_faulty(array, candidate);
    });
    if (!has_candidate) return false;
  }
  RepairGraph repair(array.cell_count());
  return match_array(repair, array, cover, pool_);
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
      if (is_faulty(array, spare)) continue;
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
