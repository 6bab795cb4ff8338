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
  for (const CellIndex cell : faulty_cells_) {
    words_[static_cast<std::size_t>(cell) >> 6] = 0;
  }
  faulty_cells_.clear();
}

std::int32_t FaultState::next_epoch() noexcept {
  return advance_epoch(epoch_, right_stamp_);
}

bool FaultState::augment(const ChipDesign::Skeleton& skeleton,
                         CellIndex primary) {
  const std::int32_t row =
      skeleton.cover_row_of_cell[static_cast<std::size_t>(primary)];
  for (const CellIndex candidate :
       skeleton.candidates_of(static_cast<std::size_t>(row))) {
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
      const auto row = static_cast<std::size_t>(
          skeleton.cover_row_of_cell[static_cast<std::size_t>(cell)]);
      bool placed = false;
      for (const CellIndex candidate : skeleton.candidates_of(row)) {
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
        if (!augment(skeleton, cell)) return false;
      }
    }
  }
  return true;
}

}  // namespace dmfb::sim
