// sim::Session — request/response Monte-Carlo yield evaluation over one
// immutable ChipDesign.
//
// The session owns (a) the shared design snapshot and (b) a thread-safe
// result cache keyed by the full query, so repeated or concurrent identical
// queries are computed once and served to every caller — the primitive the
// campaign runner's point dedupe and the core facade build on. Worker threads inside a run use per-thread
// FaultState scratch (no HexArray clones) over the design's pre-built
// matching skeletons.
//
// Determinism contract: run i of a query always draws from
// run_stream(query.seed, i), so an estimate depends only on (design, query)
// — never on threads or scheduling. Adaptive stopping preserves this by
// evaluating its stop rule at fixed chunk boundaries (kAdaptiveChunkRuns):
// the realised run count, and therefore the estimate, is bit-identical for
// every thread count.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "graph/matching.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/assay_workload.hpp"
#include "sim/fault_model.hpp"

namespace dmfb::sim {

/// Yield estimate with a Wilson 95% confidence interval.
struct YieldEstimate {
  double value = 0.0;
  Interval ci95;
  std::int64_t runs = 0;
  std::int64_t successes = 0;

  /// Canonical constructor: defines the degenerate cases explicitly.
  /// runs == 0 yields value 0 with the vacuous interval [0, 1]; 0 successes
  /// pin ci95.lo to 0 and all-successes pin ci95.hi to 1.
  static YieldEstimate from_counts(std::int64_t successes, std::int64_t runs);
};

/// The experiment seed the paper-reproduction defaults use everywhere.
inline constexpr std::uint64_t kDefaultSeed = 0xD0E5A11ULL;

/// Runs handed to adaptive stopping between stop-rule checks. Chunk
/// boundaries are part of the determinism contract: changing this constant
/// changes adaptive estimates (but never fixed-run ones).
inline constexpr std::int32_t kAdaptiveChunkRuns = 1024;

/// What a Monte-Carlo run evaluates.
enum class Workload : std::uint8_t {
  /// Structural repairability: the matching covers the faulty primaries
  /// (the paper's Figs. 7/9/10 metric).
  kStructural,
  /// Operational completion: the reconfiguration plan is applied to the
  /// session's AssayWorkload, the assay is re-scheduled and its droplets
  /// re-routed on the repaired array (the Figs. 12-13 view). Requires a
  /// session opened over an AssayWorkload.
  kAssay,
};

/// One self-contained yield question: defect model, run budget, repair
/// configuration.
struct YieldQuery {
  FaultModel fault;  ///< what breaks per run

  /// What each run evaluates (kAssay needs a workload-backed session).
  Workload workload = Workload::kStructural;

  /// Monte-Carlo runs; with adaptive stopping this is the *cap*.
  std::int32_t runs = 10000;
  std::uint64_t seed = kDefaultSeed;
  /// Worker threads: 1 = serial loop, 0 = one per hardware thread, N > 1 =
  /// exactly N. Never affects the estimate.
  std::int32_t threads = 1;

  reconfig::CoveragePolicy policy =
      reconfig::CoveragePolicy::kAllFaultyPrimaries;
  /// Not read: structural runs are settled by FaultState::repairable and
  /// operational plans always run Hopcroft-Karp. Exists only for
  /// perfbench/layers.cpp and is removed in the next benchmark change.
  graph::MatchingEngine engine = graph::MatchingEngine::kHopcroftKarp;
  reconfig::ReplacementPool pool = reconfig::ReplacementPool::kSparesOnly;

  /// Adaptive stopping: when > 0, stop at the first kAdaptiveChunkRuns
  /// boundary where the Wilson 95% half-width is <= this target (or at
  /// `runs`, whichever comes first). 0 = fixed run count.
  double target_ci_half_width = 0.0;

  /// Injection draw contract. kV1 (default) replays the serial xoshiro
  /// trajectory every golden number was produced under. kV2 gives each run
  /// a counter-based stream (run_stream_v2) with geometric skip-sampling —
  /// O(faults) injection, statistically equivalent but numerically distinct
  /// estimates, still a pure function of (design, query).
  RngVersion rng_version = RngVersion::kV1;
};

/// Canonical cache/dedupe key: two queries with equal keys are guaranteed
/// bit-identical results on the same design. Doubles are keyed by bit
/// pattern, so -0.0 != 0.0 (distinct keys, same result — harmless).
///
/// Injection-proofness: every field is rendered as a decimal integer (enum
/// ordinals, bit patterns) joined by '|', and a mixture's component list is
/// wrapped in '[' ... ']' with ';' terminators, so no value can ever contain
/// a separator and two distinct queries always serialize differently (the
/// regression suite in tests/test_sim_session.cpp pins the adversarial
/// cases). Keep it that way: never append a free-form string field here —
/// length-prefix or escape it first. These keys become durable on disk via
/// store_key(), where a collision would silently alias two experiments.
std::string query_key(const YieldQuery& query);

/// Durable cross-process store key for (design, query): a store-schema
/// version prefix + the design's content fingerprint + query_key. Two
/// different designs (even with equal cell counts) fingerprint differently,
/// so one on-disk store can safely serve every design.
std::string store_key(const YieldQuery& query, const ChipDesign& design);

/// Durable key for a query asked of a workload-backed session. A structural
/// query keys exactly as store_key(query, workload.design()); an assay
/// query's answer also depends on the graph and the placed modules, so its
/// key adds the workload's fingerprint ("|w" + decimal) after the design's.
std::string store_key(const YieldQuery& query, const AssayWorkload& workload);

/// Abstract external (typically on-disk, cross-process) result cache a
/// Session consults on in-memory misses; see serve::ResultStore for the
/// durable implementation. Implementations must be thread-safe. load()
/// returns the payload previously store()d under `key`, or nullopt for a
/// miss; a throwing load fails the query (the session drops the cache entry
/// so a retry recomputes). store() is best-effort and must not throw.
class ResultCache {
 public:
  virtual ~ResultCache() = default;
  virtual std::optional<std::string> load(const std::string& key) = 0;
  virtual void store(const std::string& key, const std::string& payload) = 0;
};

/// Exact (bit-preserving) text codecs for the ResultCache payloads: doubles
/// travel as decimal uint64 bit patterns, so a decoded estimate is
/// bit-identical to the stored one. decode returns nullopt on any mismatch
/// (wrong tag, truncation, trailing bytes) — a corrupt payload is a miss,
/// never a crash.
std::string encode_estimate(const YieldEstimate& estimate);
std::optional<YieldEstimate> decode_estimate(std::string_view payload);

/// The Rng stream run `run` of an experiment draws from. A custom oracle
/// outside the session's fault models (bench_ablation_replacement's module
/// re-placement, say) is a serial loop over it: for run i, inject into a
/// HexArray from run_stream(seed, i), ask the oracle, reset_health().
Rng run_stream(std::uint64_t seed, std::int32_t run) noexcept;

/// The v2 counter stream run `run` draws from. Same (seed, run) -> key
/// derivation family as run_stream, but the key is the *second* splitmix64
/// output so v2 uniforms never coincide with the v1 xoshiro seed state.
CounterStream run_stream_v2(std::uint64_t seed, std::int32_t run) noexcept;

/// Both metrics of one operational (workload = kAssay) experiment, plus the
/// completion-time degradation of the surviving runs. Structural and
/// operational legs share the per-run fault draws, so for fixed-run
/// queries `structural` is bit-identical to the same query asked with
/// Workload::kStructural. (Adaptive queries stop on the *operational* CI,
/// so their realised run count — and with it the structural leg — may
/// differ from a structural-workload run of the same query.)
struct OperationalEstimate {
  YieldEstimate structural;   ///< reconfiguration plan covered the faults
  YieldEstimate operational;  ///< remapped assay completed
  /// Mean / worst completion-time ratio (degraded / healthy baseline) over
  /// the operationally successful runs; 0 when none succeeded. Folded in
  /// run order, so both are thread-count invariant bit-for-bit.
  double mean_slowdown = 0.0;
  double worst_slowdown = 0.0;
};

/// ResultCache codec for operational estimates (same contract as
/// encode_estimate / decode_estimate).
std::string encode_operational(const OperationalEstimate& estimate);
std::optional<OperationalEstimate> decode_operational(
    std::string_view payload);

/// Default bound on completed entries kept in a session's cache (both
/// workloads together): generous for any campaign grid, small enough that a
/// long-lived daemon never grows without bound.
inline constexpr std::size_t kDefaultCacheCapacity = 1 << 16;

class Session {
 public:
  /// Opens a session over an existing shared design.
  explicit Session(std::shared_ptr<const ChipDesign> design);
  /// Convenience: snapshots `array` (must be healthy) into a fresh design.
  explicit Session(const biochip::HexArray& array);
  /// Opens a session over an operational workload (shared, like the
  /// design); such a session answers both workload kinds.
  explicit Session(std::shared_ptr<const AssayWorkload> workload);

  const ChipDesign& design() const noexcept { return *design_; }
  std::shared_ptr<const ChipDesign> design_ptr() const noexcept {
    return design_;
  }
  /// The attached operational workload, or nullptr for a design-only
  /// session (which rejects Workload::kAssay queries).
  std::shared_ptr<const AssayWorkload> workload_ptr() const noexcept {
    return workload_;
  }

  /// Answers one query, serving it from the cache when an identical query
  /// has already run (or is running — concurrent duplicates wait for the
  /// first computation instead of recomputing). Thread-safe. A
  /// Workload::kAssay query returns the operational leg of
  /// run_operational(query).
  YieldEstimate run(const YieldQuery& query);

  /// Answers one operational query (query.workload must be kAssay and the
  /// session must carry a workload) with both metrics. Same caching and
  /// determinism contract as run().
  OperationalEstimate run_operational(const YieldQuery& query);

  /// Attaches an external result cache consulted (under store_key) on
  /// in-memory misses before simulating; freshly computed estimates are
  /// stored back. Pass nullptr to detach. Not thread-safe against
  /// concurrent run() calls — attach before serving.
  void attach_result_cache(std::shared_ptr<ResultCache> cache);

  /// Bounds the completed entries kept in the cache (both workloads
  /// together); the oldest completed entries are evicted first, in-flight
  /// computations are never evicted. Lowering the capacity below the
  /// current population evicts at once. Default kDefaultCacheCapacity.
  void set_cache_capacity(std::size_t max_entries);

  /// Cache accounting across the session's lifetime.
  struct Stats {
    std::size_t queries = 0;     ///< run() calls answered
    std::size_t computed = 0;    ///< distinct queries actually simulated
    std::size_t store_hits = 0;  ///< queries served by the external cache
    std::size_t evictions = 0;   ///< completed entries evicted by the bound
    std::size_t cache_hits() const noexcept {
      return queries - computed - store_hits;
    }
  };
  Stats stats() const;

 private:
  /// The memo both workloads share: lookup, in-flight join, store
  /// load/decode, compute(), store write-back, stats and eviction.
  template <typename Result, typename Compute>
  Result memoized(const YieldQuery& query, const Compute& compute);
  /// Evicts the oldest completed entries beyond capacity_. Call with
  /// mutex_ held.
  void evict_locked();
  YieldEstimate execute(const YieldQuery& query) const;
  OperationalEstimate execute_operational(const YieldQuery& query) const;

  std::shared_ptr<const ChipDesign> design_;
  std::shared_ptr<const AssayWorkload> workload_;
  std::shared_ptr<ResultCache> result_cache_;
  mutable std::mutex mutex_;
  /// One cache for both workloads: query_key includes the workload, so a
  /// key always maps to the same result type.
  using Entry = std::variant<std::shared_future<YieldEstimate>,
                             std::shared_future<OperationalEstimate>>;
  std::unordered_map<std::string, Entry> cache_;
  /// Completed keys in completion order (eviction order).
  std::deque<std::string> completed_order_;
  std::size_t capacity_ = kDefaultCacheCapacity;
  Stats stats_;
};

}  // namespace dmfb::sim
