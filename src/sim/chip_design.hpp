// sim::ChipDesign — immutable, shareable snapshot of a chip topology.
//
// A HexArray conflates the chip's *design* (region, roles, usage — fixed for
// a whole experiment) with per-run *fault state* (health bits — scribbled
// and reset every run); simulating on it would need a full clone per worker
// thread and a bipartite-graph rebuild per run. ChipDesign splits the two:
// it freezes the design half behind a shared_ptr that any number of
// sessions/threads can read concurrently, and pre-builds the bipartite
// matching *skeleton* for every (coverage policy x replacement pool)
// combination — per run the matcher only filters skeleton edges by fault
// bits (see sim::FaultState) instead of re-discovering them through hash
// maps.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "biochip/hex_array.hpp"
#include "graph/matching.hpp"
#include "reconfig/local_reconfig.hpp"

namespace dmfb::sim {

using hex::CellIndex;

/// 64-bit words needed for one fault/cover bit per cell (see
/// FaultState::fault_words: cell i lives in word i/64, bit i%64; the
/// trailing bits of the last word stay zero).
inline constexpr std::size_t fault_word_count(std::int32_t cells) noexcept {
  return (static_cast<std::size_t>(cells) + 63) / 64;
}

class ChipDesign {
 public:
  /// Snapshots `array`'s topology, roles and usage. The array must be
  /// healthy (call reset_health() first if it carries injected faults);
  /// later mutations of `array` do not affect the snapshot.
  static std::shared_ptr<const ChipDesign> make(
      const biochip::HexArray& array);

  /// The frozen array snapshot (healthy; never health-mutated). Exposed for
  /// topology queries — region, roles, neighbour lists, redundancy algebra.
  const biochip::HexArray& array() const noexcept { return array_; }

  std::int32_t cell_count() const noexcept { return array_.cell_count(); }
  std::int32_t primary_count() const noexcept {
    return array_.primary_count();
  }
  std::int32_t spare_count() const noexcept { return array_.spare_count(); }

  /// Content fingerprint of the snapshot (FNV-1a over every cell's
  /// coordinates, role and usage, in index order): two designs with the
  /// same fingerprint answer every query identically, so the fingerprint
  /// keys cross-process result stores (sim::store_key). Stable across runs
  /// and platforms — a pure function of the geometry, no pointers or hash
  /// seeds involved.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// Pre-built matching skeleton for one (policy, pool) combination: the
  /// health-independent half of reconfig's BG(A, B, E).
  struct Skeleton {
    /// Primaries the policy may require covering, in cell-index order
    /// (all primaries, or the assay-used ones).
    std::vector<CellIndex> cover;
    /// CSR rows parallel to `cover`: each coverable primary's replacement
    /// candidates as reconfig::for_each_candidate lists them (the one
    /// candidate rule and order). Candidates are filtered per run by fault
    /// bit only.
    std::vector<CellIndex> candidate_flat;
    std::vector<std::int32_t> candidate_offset;  // cover.size() + 1 entries
    /// Inverse of `cover`: cell -> its cover row, -1 for uncovered cells
    /// (spares, and unused primaries under the used-faulty policy).
    std::vector<std::int32_t> cover_row_of_cell;
    /// Word-packed coverage mask (same layout as FaultState::fault_words):
    /// `faults & cover_words` yields the faulty primaries the policy must
    /// cover, one word-parallel AND per 64 cells.
    std::vector<std::uint64_t> cover_words;

    /// The candidate row of `primary`, which must be in `cover`.
    std::span<const CellIndex> candidates_of(CellIndex primary) const {
      const auto row = static_cast<std::size_t>(
          cover_row_of_cell[static_cast<std::size_t>(primary)]);
      return {candidate_flat.data() + candidate_offset[row],
              static_cast<std::size_t>(candidate_offset[row + 1] -
                                       candidate_offset[row])};
    }
  };

  const Skeleton& skeleton(reconfig::CoveragePolicy policy,
                           reconfig::ReplacementPool pool) const noexcept {
    return skeletons_[skeleton_index(policy, pool)];
  }

 private:
  explicit ChipDesign(biochip::HexArray array);

  static std::size_t skeleton_index(
      reconfig::CoveragePolicy policy,
      reconfig::ReplacementPool pool) noexcept {
    return static_cast<std::size_t>(policy) * 2 +
           static_cast<std::size_t>(pool);
  }

  biochip::HexArray array_;
  Skeleton skeletons_[4];  // [policy][pool]
  std::uint64_t fingerprint_ = 0;
};

}  // namespace dmfb::sim
