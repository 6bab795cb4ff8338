// sim::FaultState — cheap per-thread fault scratch for one ChipDesign.
//
// Everything a worker needs to evaluate runs on a shared design, instead of
// a HexArray clone: a word-packed fault bitmap plus the reusable matching
// buffers, all indexed by cell (claim and match arrays, visit stamps). One
// FaultState serves an entire worker's run loop with zero steady-state
// allocation; reset() costs O(#faults), not O(#cells).
//
// Fault bits are packed 64 per std::uint64_t word (cell i -> word i/64,
// bit i%64), so the repairability scan is word-parallel: one AND against
// the skeleton's coverage mask per 64 cells finds the faulty primaries the
// policy must cover, and bit extraction walks only the set bits instead of
// every coverable primary.
//
// Both repairability paths are Kuhn's augmenting-path algorithm in cell
// space over the design's skeleton; no run builds a bipartite graph or
// calls a matching engine. Equal verdicts (pinned by the fuzz suite):
//   repairable()             — batch: each faulty covered primary, in cell
//                              order, claims its first unclaimed healthy
//                              candidate. A primary that finds none starts
//                              one augmenting-path DFS whose first hops are
//                              its (claimed) healthy candidates. If that DFS
//                              fails, no maximum matching saturates the
//                              primary (Kuhn's lemma), so the run is
//                              unrepairable; isolated primaries fail at once.
//   repairable_incremental() — diff this run's fault words against the
//                              previous accepted run's, drop matches that
//                              involve departed/newly-faulty cells, and
//                              re-augment only from the changed primaries;
//                              past a churn threshold (or after a config
//                              change / infeasible verdict) it falls back
//                              to a full rebuild. Because maximum-matching
//                              *size* is order-independent, the verdict is
//                              a pure function of the fault set — worker
//                              history never leaks into results.
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
  /// on an equally-faulted HexArray, for every engine. `engine` is not read:
  /// every engine gives the same verdict, and the parameter stays only until
  /// the callers that still pass it drop it together with the campaign
  /// `engine` key.
  bool repairable(reconfig::CoveragePolicy policy,
                  graph::MatchingEngine engine,
                  reconfig::ReplacementPool pool);

  /// Same verdict as repairable(), computed incrementally against the fault
  /// words this state saw on its previous repairable_incremental() call
  /// (see the header comment); the same augmenting DFS as repairable().
  /// Call between inject() and reset(), one (policy, pool)
  /// configuration per run sequence for the diff to pay off.
  bool repairable_incremental(reconfig::CoveragePolicy policy,
                              reconfig::ReplacementPool pool);

  // -- incremental-repair introspection (tests, diagnostics) ----------------
  /// Matched pairs held by the incremental matching after the last
  /// repairable_incremental() call (== covered faulty primaries when it
  /// returned true).
  std::int32_t incremental_matched_count() const noexcept;
  /// Full invariant check of the incremental matching: mutual consistency,
  /// matched primaries faulty + covered, candidates healthy and adjacent in
  /// the active skeleton. Test hook; O(#cells).
  bool incremental_matching_valid() const;

  /// Churn (popcount of the fault-word diff) at or above which
  /// repairable_incremental() rebuilds from scratch instead of diffing:
  /// the incremental path costs ~one augmentation per changed cell, the
  /// rebuild ~one per faulty primary, so past parity (plus slack for the
  /// constant-factor advantage of the batch scan) diffing only adds work.
  static constexpr std::int32_t kIncrementalChurnSlack = 8;

 private:
  // Kuhn's augmenting-path DFS from the faulty covered `primary` over the
  // healthy candidates of its skeleton row. `Matching` maps a candidate to
  // the primary holding it (owner, -1 when free) and records a new pair
  // (assign); the batch claims and the incremental matching each supply
  // one. Visit marks are this call's next_epoch() in right_stamp_.
  template <typename Matching>
  bool augment(const ChipDesign::Skeleton& skeleton, CellIndex primary,
               Matching& matching);
  std::int32_t next_epoch() noexcept;

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

  // Incremental-repair state: the committed fault words of the previous
  // call and the live matching in cell space (primary cell <-> candidate
  // cell). inc_valid_ means the previous verdict was feasible, so every
  // prev-faulty covered primary is matched and a diff is meaningful.
  std::vector<std::uint64_t> prev_words_;
  std::vector<std::int32_t> inc_match_primary_;
  std::vector<std::int32_t> inc_match_candidate_;
  std::vector<CellIndex> inc_pending_;  // primaries to (re)augment, scratch
  bool inc_valid_ = false;
  reconfig::CoveragePolicy inc_policy_{};
  reconfig::ReplacementPool inc_pool_{};
};

}  // namespace dmfb::sim
