// sim::FaultState — cheap per-thread fault scratch for one ChipDesign.
//
// Everything a worker needs to evaluate runs on a shared design, instead of
// a HexArray clone: a word-packed fault bitmap plus the reusable matching
// buffers, all indexed by cell (claim arrays, visit stamps). One
// FaultState serves an entire worker's run loop with zero steady-state
// allocation; reset() costs O(#faults), not O(#cells).
//
// Fault bits are packed 64 per std::uint64_t word (cell i -> word i/64,
// bit i%64), so the repairability scan is word-parallel: one AND against
// the skeleton's coverage mask per 64 cells finds the faulty primaries the
// policy must cover, and bit extraction walks only the set bits instead of
// every coverable primary.
//
// repairable() is Kuhn's augmenting-path algorithm in cell space over the
// design's skeleton; no run builds a bipartite graph or runs
// graph::CsrMatcher. Each faulty covered primary, in cell order, claims its
// first unclaimed healthy candidate. A primary that finds none starts one
// augmenting-path DFS whose first hops are its (claimed) healthy
// candidates. If that DFS fails, no maximum matching saturates the primary
// (Kuhn's lemma), so the run is unrepairable; isolated primaries fail at
// once. The verdict is a pure function of the fault set.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "graph/matching.hpp"
#include "sim/chip_design.hpp"

namespace dmfb::sim {

class FaultState {
 public:
  /// Binds the scratch to `design` (shared, kept alive by the state).
  explicit FaultState(std::shared_ptr<const ChipDesign> design);

  const ChipDesign& design() const noexcept { return *design_; }

  // -- fault bitmap ---------------------------------------------------------
  bool is_faulty(CellIndex cell) const noexcept {
    return (words_[static_cast<std::size_t>(cell) >> 6] >>
            (static_cast<std::uint32_t>(cell) & 63)) &
           1;
  }
  /// Marks `cell` faulty (idempotent). Inline: called once per injected
  /// fault inside the MC run kernel's injection loop.
  void set_faulty(CellIndex cell) {
    DMFB_EXPECTS(cell >= 0 && cell < design_->cell_count());
    std::uint64_t& word = words_[static_cast<std::size_t>(cell) >> 6];
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<std::uint32_t>(cell) & 63);
    if ((word & mask) == 0) {
      word |= mask;
      faulty_cells_.push_back(cell);
    }
  }
  /// Bulk-injection path for skip-sampled v2 streams: `cell` must be
  /// strictly greater than every cell already marked (ascending injection
  /// order), so the membership probe of set_faulty is unnecessary — the
  /// fault word is written and the cell appended directly.
  void set_faulty_ascending(CellIndex cell) {
    DMFB_EXPECTS(cell >= 0 && cell < design_->cell_count());
    DMFB_EXPECTS(faulty_cells_.empty() || faulty_cells_.back() < cell);
    words_[static_cast<std::size_t>(cell) >> 6] |=
        std::uint64_t{1} << (static_cast<std::uint32_t>(cell) & 63);
    faulty_cells_.push_back(cell);
  }
  std::int32_t faulty_count() const noexcept {
    return static_cast<std::int32_t>(faulty_cells_.size());
  }
  /// Faulty cells in injection order (may help diagnostics; not sorted).
  std::span<const CellIndex> faulty_cells() const noexcept {
    return faulty_cells_;
  }
  /// The packed bitmap (cell i at word i/64, bit i%64; trailing bits of the
  /// last word are always zero). Word count = fault_word_count(cell_count).
  std::span<const std::uint64_t> fault_words() const noexcept {
    return words_;
  }
  /// Clears all fault bits in O(#faults).
  void reset() noexcept;

  // -- repairability --------------------------------------------------------
  /// True iff local reconfiguration can repair the current fault state:
  /// first-fit claims over the design's pre-built (policy, pool) skeleton,
  /// extended by an augmenting-path DFS wherever first-fit gets stuck (see
  /// the header comment). Equivalent to reconfig::LocalReconfigurer::feasible
  /// on an equally-faulted HexArray.
  bool repairable(reconfig::CoveragePolicy policy,
                  reconfig::ReplacementPool pool);

  /// repairable(policy, pool); `engine` is not read. Exists only for
  /// perfbench/layers.cpp and is removed in the next benchmark change.
  bool repairable(reconfig::CoveragePolicy policy,
                  graph::MatchingEngine /*engine*/,
                  reconfig::ReplacementPool pool) {
    return repairable(policy, pool);
  }

  /// repairable(policy, pool). Exists only for perfbench/layers.cpp and is
  /// removed in the next benchmark change.
  bool repairable_incremental(reconfig::CoveragePolicy policy,
                              reconfig::ReplacementPool pool) {
    return repairable(policy, pool);
  }

 private:
  // Kuhn's augmenting-path DFS from the faulty covered `primary` over the
  // healthy candidates of its skeleton row, through the current call's
  // claims. Visit marks are this call's next_epoch() in right_stamp_.
  bool augment(const ChipDesign::Skeleton& skeleton, CellIndex primary);
  std::int32_t next_epoch() noexcept;
  bool claimed(CellIndex candidate) const noexcept {
    return claim_stamp_[static_cast<std::size_t>(candidate)] == claim_epoch_;
  }
  void claim(CellIndex primary, CellIndex candidate) noexcept {
    claim_stamp_[static_cast<std::size_t>(candidate)] = claim_epoch_;
    claim_owner_[static_cast<std::size_t>(candidate)] = primary;
  }

  std::shared_ptr<const ChipDesign> design_;
  std::vector<std::uint64_t> words_;
  std::vector<CellIndex> faulty_cells_;

  // Augmenting-DFS visit marks: candidate cell visited iff its stamp equals
  // epoch_ (one epoch per DFS).
  std::vector<std::int32_t> right_stamp_;
  std::int32_t epoch_ = 0;

  // Batch claims of the current repairable() call: candidate cell -> the
  // primary holding it, valid iff claim_stamp_ equals claim_epoch_ (one
  // epoch per call, so no run ever clears them).
  std::vector<std::int32_t> claim_stamp_;
  std::vector<CellIndex> claim_owner_;
  std::int32_t claim_epoch_ = 0;
};

}  // namespace dmfb::sim
