// sim::FaultState — cheap per-thread fault scratch for one ChipDesign.
//
// Everything a worker needs to evaluate runs on a shared design, instead of
// a HexArray clone: a word-packed fault bitmap plus the reusable matching
// buffers, all indexed by cell (claim arrays, visit stamps). One
// FaultState serves an entire worker's run loop with zero steady-state
// allocation.
//
// Fault bits are packed 64 per std::uint64_t word (cell i -> word i/64,
// bit i%64), so the repairability scan is word-parallel: one AND against
// the skeleton's coverage mask per 64 cells finds the faulty primaries the
// policy must cover, and bit extraction walks only the set bits instead of
// every coverable primary. The bitmap is the only record of the fault set:
// beside it the state keeps just the fault count and the highest marked
// cell (the ascending writers' precondition). reset() zeroes the words in
// O(#cells / 64), which repairable()'s word scan already costs every run,
// and a lock-step injector writes a run's faults a whole word at a time.
//
// repairable() is Kuhn's augmenting-path algorithm in cell space over the
// design's skeleton; no run builds a bipartite graph or runs
// graph::CsrMatcher. Each faulty covered primary, in cell order, claims its
// first unclaimed healthy candidate. A primary that finds none starts one
// augmenting-path DFS whose first hops are its (claimed) healthy
// candidates. If that DFS fails, no maximum matching saturates the primary
// (Kuhn's lemma), so the run is unrepairable; isolated primaries fail at
// once. The verdict is a pure function of the fault set.
//
// witness() certifies each verdict from the call's claim and visit arrays:
// the claims on success, a Hall set (paper Section 6) on failure.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "graph/matching.hpp"
#include "sim/chip_design.hpp"

namespace dmfb::sim {

/// Certificate of one FaultState::repairable verdict.
struct RepairWitness {
  /// On success: each covered faulty primary (`faulty`) with the adjacent
  /// healthy candidate it claims (`spare`), ascending by candidate.
  std::vector<reconfig::Replacement> claims;
  /// On failure: the Hall set S, ascending — the stuck primary plus the
  /// owners of the candidates its failed augmenting DFS visited, which are
  /// all of S's healthy candidates, so |N(S)| = |S| - 1.
  std::vector<CellIndex> hall_set;
};

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
      ++faulty_count_;
      if (cell > last_faulty_) last_faulty_ = cell;
    }
  }
  /// Bulk-injection path for streams that fault cells in ascending order
  /// (v1 Bernoulli and parametric, v2 skip-sampling): `cell` must be
  /// strictly greater than every cell already marked, so the membership
  /// probe of set_faulty is unnecessary.
  void set_faulty_ascending(CellIndex cell) {
    DMFB_EXPECTS(cell >= 0 && cell < design_->cell_count());
    DMFB_EXPECTS(cell > last_faulty_);
    words_[static_cast<std::size_t>(cell) >> 6] |=
        std::uint64_t{1} << (static_cast<std::uint32_t>(cell) & 63);
    ++faulty_count_;
    last_faulty_ = cell;
  }
  /// Ascending bulk write: marks every set bit of `bits` in fault word
  /// `word` (cell word * 64 + b for bit b). No bit may lie at or past
  /// cell_count(), and none at or below a cell already marked, so the
  /// cells of a run arrive one word at a time, lowest first.
  void set_faulty_word_ascending(std::size_t word, std::uint64_t bits) {
    DMFB_EXPECTS(word < words_.size());
    if (bits == 0) return;
    const auto base = static_cast<CellIndex>(word << 6);
    const CellIndex highest = base + 63 - std::countl_zero(bits);
    DMFB_EXPECTS(highest < design_->cell_count());
    DMFB_EXPECTS(base + std::countr_zero(bits) > last_faulty_);
    words_[word] |= bits;
    faulty_count_ += std::popcount(bits);
    last_faulty_ = highest;
  }
  std::int32_t faulty_count() const noexcept { return faulty_count_; }
  /// The faulty cells, ascending (decoded from the bitmap; for diagnostics
  /// and tests, not the run loop).
  std::vector<CellIndex> faulty_cells() const;
  /// The packed bitmap (cell i at word i/64, bit i%64; trailing bits of the
  /// last word are always zero). Word count = fault_word_count(cell_count).
  std::span<const std::uint64_t> fault_words() const noexcept {
    return words_;
  }
  /// Clears all fault bits: zeroes the O(#cells / 64) words.
  void reset() noexcept;

  // -- repairability --------------------------------------------------------
  /// True iff local reconfiguration can repair the current fault state:
  /// first-fit claims over the design's pre-built (policy, pool) skeleton,
  /// extended by an augmenting-path DFS wherever first-fit gets stuck (see
  /// the header comment). witness() certifies the answer.
  bool repairable(reconfig::CoveragePolicy policy,
                  reconfig::ReplacementPool pool);

  /// The witness of the last repairable() call: its claims if it returned
  /// true, its Hall set if it returned false. Built from the call's scratch
  /// in O(#cells), so it is valid only until the next repairable() call
  /// (set_faulty() and reset() do not touch it).
  RepairWitness witness() const;

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
  std::int32_t faulty_count_ = 0;
  // The highest marked cell (-1 when none): every bit of words_ lies at or
  // below it.
  CellIndex last_faulty_ = -1;

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

  // The primary a failing repairable() call got stuck on, with that call's
  // claim epoch; the only store the witness adds to the run loop.
  struct Stuck {
    CellIndex primary = hex::kInvalidCell;
    std::int32_t claim_epoch = -1;
  } stuck_;
};

}  // namespace dmfb::sim
