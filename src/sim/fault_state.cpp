#include "sim/fault_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/contracts.hpp"

namespace dmfb::sim {

namespace {

// Advances an epoch counter. At overflow it clears `stamps` and restarts at
// 1, so a stale stamp never equals a live epoch.
std::int32_t advance_epoch(std::int32_t& epoch,
                           std::vector<std::int32_t>& stamps) noexcept {
  if (++epoch == std::numeric_limits<std::int32_t>::max()) {
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 1;
  }
  return epoch;
}

}  // namespace

FaultState::FaultState(std::shared_ptr<const ChipDesign> design)
    : design_(std::move(design)) {
  DMFB_EXPECTS(design_ != nullptr);
  const auto n = static_cast<std::size_t>(design_->cell_count());
  words_.assign(fault_word_count(design_->cell_count()), 0);
  right_stamp_.assign(n, 0);
  claim_stamp_.assign(n, 0);
  claim_owner_.assign(n, -1);
}

void FaultState::reset() noexcept {
  std::fill(words_.begin(), words_.end(), 0);
  faulty_count_ = 0;
  last_faulty_ = -1;
}

std::vector<CellIndex> FaultState::faulty_cells() const {
  std::vector<CellIndex> cells;
  cells.reserve(static_cast<std::size_t>(faulty_count_));
  for (std::size_t w = 0; w < words_.size(); ++w) {
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      cells.push_back(static_cast<CellIndex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  return cells;
}

std::int32_t FaultState::next_epoch() noexcept {
  return advance_epoch(epoch_, right_stamp_);
}

bool FaultState::augment(const ChipDesign::Skeleton& skeleton,
                         CellIndex primary) {
  for (const CellIndex candidate : skeleton.candidates_of(primary)) {
    if (is_faulty(candidate)) continue;
    auto& stamp = right_stamp_[static_cast<std::size_t>(candidate)];
    if (stamp == epoch_) continue;
    stamp = epoch_;
    if (!claimed(candidate) ||
        augment(skeleton, claim_owner_[static_cast<std::size_t>(candidate)])) {
      claim(primary, candidate);
      return true;
    }
  }
  return false;
}

bool FaultState::repairable(reconfig::CoveragePolicy policy,
                            reconfig::ReplacementPool pool) {
  const ChipDesign::Skeleton& skeleton = design_->skeleton(policy, pool);
  advance_epoch(claim_epoch_, claim_stamp_);
  // Word-parallel scan: one AND per 64 cells selects the faulty primaries
  // the policy must cover; bit extraction then visits only the set bits.
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t bits = words_[w] & skeleton.cover_words[w];
    while (bits != 0) {
      const auto cell = static_cast<CellIndex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      // First fit: the primary's first healthy candidate nobody claimed.
      bool placed = false;
      for (const CellIndex candidate : skeleton.candidates_of(cell)) {
        if (!claimed(candidate) && !is_faulty(candidate)) {
          claim(cell, candidate);
          placed = true;
          break;
        }
      }
      // Stuck: every healthy candidate is claimed (or there is none), so
      // only an augmenting path through the claims can place this primary.
      // Without one no maximum matching saturates it.
      if (!placed) {
        next_epoch();
        if (!augment(skeleton, cell)) {
          stuck_ = {cell, claim_epoch_};
          return false;
        }
      }
    }
  }
  return true;
}

RepairWitness FaultState::witness() const {
  RepairWitness witness;
  const bool failed = stuck_.claim_epoch == claim_epoch_;
  if (failed) witness.hall_set.push_back(stuck_.primary);
  for (CellIndex cell = 0; cell < design_->cell_count(); ++cell) {
    if (!claimed(cell)) continue;
    const CellIndex owner = claim_owner_[static_cast<std::size_t>(cell)];
    if (!failed) {
      witness.claims.push_back({owner, cell});
    } else if (right_stamp_[static_cast<std::size_t>(cell)] == epoch_) {
      witness.hall_set.push_back(owner);  // visited by the failed DFS
    }
  }
  std::sort(witness.hall_set.begin(), witness.hall_set.end());
  return witness;
}

}  // namespace dmfb::sim
