// Independent checker for sim::FaultState::repairable's witnesses, and the
// serial certified loop the Session suites compare against.
//
// The checker recomputes what a verdict claims from a design's geometry
// (hex::Region neighbours), roles and usage alone; it reads neither the
// design skeleton nor reconfig's candidate rule. A true verdict must come
// with claims that map the covered faulty primaries one-to-one onto
// adjacent healthy candidates, a matching that saturates them. A false
// verdict must come with a Hall set S of covered faulty primaries whose
// replacement neighbourhood N(S) is smaller than S, so no such matching
// exists (paper Section 6, Hall's theorem).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/hex_array.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {

class WitnessChecker {
 public:
  /// Copies `topology`'s roles, usage and region adjacency; its health is
  /// not read (each check brings its fault set).
  explicit WitnessChecker(const biochip::HexArray& topology) {
    for (CellIndex cell = 0; cell < topology.cell_count(); ++cell) {
      roles_.push_back(topology.role(cell));
      usage_.push_back(topology.usage(cell));
      neighbors_.push_back(topology.region().neighbors_of(cell));
    }
  }

  /// N(S) under `pool`: the healthy cells adjacent to a member of `cells`
  /// that may replace it (spares; unused primaries too in the
  /// spares-and-unused pool), ascending.
  template <typename IsFaulty>
  std::vector<CellIndex> neighborhood(std::span<const CellIndex> cells,
                                      reconfig::ReplacementPool pool,
                                      const IsFaulty& is_faulty) const {
    std::vector<CellIndex> out;
    for (const CellIndex cell : cells) {
      for (const CellIndex next : neighbors_[static_cast<std::size_t>(cell)]) {
        const auto i = static_cast<std::size_t>(next);
        if (!is_faulty(next) &&
            (roles_[i] == biochip::CellRole::kSpare ||
             (pool == reconfig::ReplacementPool::kSparesAndUnusedPrimaries &&
              usage_[i] == biochip::CellUsage::kUnused))) {
          out.push_back(next);
        }
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  /// Success iff `witness` certifies `verdict` for the fault set
  /// `is_faulty` under (policy, pool).
  template <typename IsFaulty>
  ::testing::AssertionResult check(const IsFaulty& is_faulty,
                                   reconfig::CoveragePolicy policy,
                                   reconfig::ReplacementPool pool,
                                   bool verdict,
                                   const RepairWitness& witness) const {
    std::vector<CellIndex> cover;  // the covered faulty primaries
    for (std::size_t i = 0; i < roles_.size(); ++i) {
      const auto cell = static_cast<CellIndex>(i);
      if (roles_[i] == biochip::CellRole::kPrimary && is_faulty(cell) &&
          (policy == reconfig::CoveragePolicy::kAllFaultyPrimaries ||
           usage_[i] == biochip::CellUsage::kAssayUsed)) {
        cover.push_back(cell);
      }
    }
    const auto sorted = [](std::vector<CellIndex> cells) {
      std::sort(cells.begin(), cells.end());
      return cells;
    };
    const auto distinct = [](const std::vector<CellIndex>& cells) {
      return std::adjacent_find(cells.begin(), cells.end()) == cells.end();
    };
    if (!verdict) {
      const std::vector<CellIndex> set = sorted(witness.hall_set);
      if (!witness.claims.empty() || !distinct(set) ||
          !std::includes(cover.begin(), cover.end(), set.begin(), set.end())) {
        return ::testing::AssertionFailure()
               << "the Hall set is not a set of covered faulty primaries";
      }
      const std::size_t reach = neighborhood(set, pool, is_faulty).size();
      if (reach >= set.size()) {
        return ::testing::AssertionFailure()
               << "|N(S)| = " << reach << " >= |S| = " << set.size();
      }
      return ::testing::AssertionSuccess();
    }
    std::vector<CellIndex> primaries;
    std::vector<CellIndex> candidates;
    for (const reconfig::Replacement& claim : witness.claims) {
      if (!std::binary_search(cover.begin(), cover.end(), claim.faulty)) {
        return ::testing::AssertionFailure()
               << claim.faulty << " is not a covered faulty primary";
      }
      const std::vector<CellIndex> around =
          neighborhood({&claim.faulty, 1}, pool, is_faulty);
      if (!std::binary_search(around.begin(), around.end(), claim.spare)) {
        return ::testing::AssertionFailure()
               << claim.spare << " cannot replace " << claim.faulty;
      }
      primaries.push_back(claim.faulty);
      candidates.push_back(claim.spare);
    }
    if (!witness.hall_set.empty() || sorted(primaries) != cover ||
        !distinct(sorted(candidates))) {
      return ::testing::AssertionFailure()
             << "the claims do not map every covered faulty primary to its "
                "own candidate";
    }
    return ::testing::AssertionSuccess();
  }

  /// check() of `state`'s last repairable(policy, pool) call.
  ::testing::AssertionResult check(const FaultState& state,
                                   reconfig::CoveragePolicy policy,
                                   reconfig::ReplacementPool pool,
                                   bool verdict) const {
    return check([&state](CellIndex cell) { return state.is_faulty(cell); },
                 policy, pool, verdict, state.witness());
  }

 private:
  std::vector<biochip::CellRole> roles_;
  std::vector<biochip::CellUsage> usage_;
  std::vector<std::vector<CellIndex>> neighbors_;
};

/// `array` with its first quarter of primaries marked assay-used, so the
/// used-faulty policy and the spares-and-unused pool both have real work.
inline biochip::HexArray with_used_quarter(biochip::HexArray array) {
  const auto primaries = array.primaries();
  for (std::size_t i = 0; i < primaries.size() / 4; ++i) {
    array.set_usage(primaries[i], biochip::CellUsage::kAssayUsed);
  }
  return array;
}

/// Serial certified reference for the Session suites: run i draws from
/// run_stream(query.seed, i), injects query.fault into one FaultState
/// (scalar sim::inject, no lock-step lanes), asks repairable and checks
/// that verdict's witness, then resets. No worker threads; threads, the
/// engine and adaptive stopping are ignored.
inline YieldEstimate certified_serial_loop(
    const std::shared_ptr<const ChipDesign>& design, const YieldQuery& query) {
  const WitnessChecker checker(design->array());
  FaultState state(design);
  std::int64_t successes = 0;
  for (std::int32_t run = 0; run < query.runs; ++run) {
    Rng rng = run_stream(query.seed, run);
    inject(query.fault, state, rng);
    const bool verdict = state.repairable(query.policy, query.pool);
    EXPECT_TRUE(checker.check(state, query.policy, query.pool, verdict))
        << "run " << run;
    successes += verdict ? 1 : 0;
    state.reset();
  }
  return YieldEstimate::from_counts(successes, query.runs);
}

/// For each of `models` under every policy x pool, 300 runs at seed
/// 0xFACADE: a Session at threads 1 and one at threads 4 (one Session per
/// thread count, since `threads` is not part of the cache key) must answer
/// bit-identically to certified_serial_loop.
inline void expect_sessions_match_certified_loop(
    const std::shared_ptr<const ChipDesign>& design,
    std::initializer_list<FaultModel> models) {
  Session serial_session(design);
  Session parallel_session(design);
  for (const FaultModel& model : models) {
    for (const auto policy : {reconfig::CoveragePolicy::kAllFaultyPrimaries,
                              reconfig::CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const auto pool :
           {reconfig::ReplacementPool::kSparesOnly,
            reconfig::ReplacementPool::kSparesAndUnusedPrimaries}) {
        YieldQuery query;
        query.fault = model;
        query.runs = 300;
        query.seed = 0xFACADE;
        query.policy = policy;
        query.pool = pool;
        const YieldEstimate certified = certified_serial_loop(design, query);
        for (const std::int32_t threads : {1, 4}) {
          query.threads = threads;
          Session& session = threads == 1 ? serial_session : parallel_session;
          const YieldEstimate ported = session.run(query);
          EXPECT_EQ(ported.successes, certified.successes)
              << "model=" << static_cast<int>(model.kind)
              << " policy=" << static_cast<int>(policy)
              << " pool=" << static_cast<int>(pool) << " threads=" << threads;
          EXPECT_DOUBLE_EQ(ported.value, certified.value);
          EXPECT_DOUBLE_EQ(ported.ci95.lo, certified.ci95.lo);
          EXPECT_DOUBLE_EQ(ported.ci95.hi, certified.ci95.hi);
        }
      }
    }
  }
}

}  // namespace dmfb::sim
