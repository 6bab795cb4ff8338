// obs::Registry — deterministic, shardable metrics for the session/campaign
// stack.
//
// The registry is a fixed catalog of named counters and duration histograms
// (the Metric enum below; docs/OBSERVABILITY.md carries the prose catalog).
// Writers never contend: each thread lazily acquires its own shard of
// relaxed-atomic slots on first use, and snapshot() merges the shards in
// shard-id (worker registration) order. Every slot is a std::int64_t, so
// the merge is a sum of integers — associative and commutative — and the
// totals of *stable* counters (see MetricInfo::stable) are bit-identical
// for every thread count and schedule, because the instrumented event
// multiset itself is partition-invariant. Duration histograms measure wall
// time and are never expected to be reproducible.
//
// Enablement contract: metrics observe the run, they never steer it. No
// instrumented code path reads a counter back, so the bit-exact
// thread-invariance contract of sim::Session is untouched whether a
// registry is installed or not. Disabled is the default and is free: with
// no registry installed, the inline hot-path calls (obs::count,
// obs::ScopedDuration) reduce to one thread-local epoch check and a
// predicted branch — no atomics touched, no clock read, no allocation.
//
// Lifecycle: construct a Registry, install() it (process-wide; bumps a
// global epoch so every thread re-resolves its shard), run the workload,
// uninstall(), then snapshot(). Install/uninstall are not meant to race
// with instrumented work — callers flip them around a run, not inside one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace dmfb::obs {

/// The metric catalog. Counters first, duration histograms after
/// kFirstHistogram_; info() carries name/kind/stability metadata. Keep the
/// kMetricInfo table in metrics.cpp in exactly this order.
enum class Metric : std::uint16_t {
  // -- counters ------------------------------------------------------------
  kSessionQueries = 0,     ///< Session::run/run_operational calls answered
  kSessionCacheHits,       ///< queries served from the session cache
  kSessionComputed,        ///< distinct queries actually simulated
  kSessionInflightJoins,   ///< cache hits that waited on an in-flight twin
  kSimRuns,                ///< Monte-Carlo runs executed
  kSimSuccesses,           ///< structurally repairable runs
  kSimOpSuccesses,         ///< operationally successful runs (assay leg)
  kSimAdaptiveChunks,      ///< stop-rule chunk evaluations (1 if fixed-run)
  /// Never counted: the next three exist only for perfbench/layers.cpp and
  /// are removed in the next benchmark change.
  kIncDiffRepairs,
  kIncFullRebuilds,
  kIncChurnBailouts,
  kInjectRuns,             ///< sim::inject calls (fault draws materialised)
  kInjectCellsFaulted,     ///< cells marked faulty across all runs
  kInjectCellTrials,       ///< per-cell fault trials evaluated by injectors
  kInjectClassificationDraws,  ///< catastrophic-defect classification draws
  kCampaignGridPoints,     ///< campaign grid points executed
  kCampaignUniquePoints,   ///< distinct session computations
  kCampaignDedupedPoints,  ///< grid points served by the session cache
  kCampaignOuterWorkers,   ///< point-level worker threads of the last run
  kCampaignInnerThreads,   ///< inner MC threads per point of the last run
  kSessionStoreHits,       ///< queries answered from an attached result store
  kSessionEvictions,       ///< completed session-cache entries evicted
  kStoreHits,              ///< result-store records loaded intact
  kStoreMisses,            ///< result-store lookups with no usable record
  kStoreWrites,            ///< result-store records persisted
  kStoreCorruptDropped,    ///< torn/corrupt records treated as misses
  // -- duration histograms (nanoseconds) -----------------------------------
  kSessionQueryNs,         ///< one Session query execution (cache misses)
  kCampaignPointNs,        ///< one campaign grid point (dedupe hits included)
  kCampaignWorkerBusyNs,   ///< per campaign worker: time spent on points
  kCampaignWorkerIdleNs,   ///< per campaign worker: wall time minus busy
  kReconfigPlanNs,         ///< operational run: reconfiguration planning
  kAssayScheduleNs,        ///< operational run: assay re-scheduling
  kRouteNs,                ///< operational run: transport hop counting
  kMetricCount_,
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kMetricCount_);
inline constexpr std::size_t kFirstHistogram =
    static_cast<std::size_t>(Metric::kSessionQueryNs);
inline constexpr std::size_t kCounterCount = kFirstHistogram;
inline constexpr std::size_t kHistogramCount = kMetricCount - kFirstHistogram;

/// Histogram buckets are powers of two: bucket b counts durations with
/// bit_width(ns) == b, i.e. ns in [2^(b-1), 2^b). Bucket 0 is ns == 0.
inline constexpr std::size_t kHistogramBuckets = 64;

enum class MetricKind : std::uint8_t { kCounter, kDurationHistogram };

struct MetricInfo {
  std::string_view name;  ///< dotted catalog name, e.g. "sim.session.queries"
  MetricKind kind = MetricKind::kCounter;
  /// True when the merged total is guaranteed bit-identical for every
  /// thread count and schedule of the same workload; false for counters
  /// that legitimately depend on scheduling (worker splits, in-flight
  /// joins) and for all wall-time histograms.
  bool stable = false;
  std::string_view help;
};

/// Catalog metadata for `metric` (constexpr table, enum order).
const MetricInfo& info(Metric metric) noexcept;

/// Monotonic clock used by all obs timing (steady_clock, nanoseconds).
std::int64_t monotonic_ns() noexcept;

class Registry;

namespace detail {

struct alignas(64) Shard {
  std::array<std::atomic<std::int64_t>, kCounterCount> counters{};
  struct Histogram {
    std::atomic<std::int64_t> count{0};
    std::atomic<std::int64_t> sum_ns{0};
    std::atomic<std::int64_t> min_ns{0};  ///< valid when count > 0
    std::atomic<std::int64_t> max_ns{0};
    std::array<std::atomic<std::int64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Histogram, kHistogramCount> histograms{};
};

// Global install point. g_epoch changes on every install/uninstall so the
// per-thread cached shard pointer is re-resolved exactly once per flip.
extern std::atomic<Registry*> g_registry;
extern std::atomic<std::uint64_t> g_epoch;

/// Slow path: registers the calling thread with the installed registry
/// (appending a fresh shard) or returns nullptr when none is installed.
Shard* acquire_shard() noexcept;

/// The calling thread's shard of the installed registry, or nullptr when
/// metrics are disabled. Fast path: one relaxed epoch load + compare.
inline Shard* current_shard() noexcept {
  thread_local Shard* shard = nullptr;
  thread_local std::uint64_t epoch = 0;
  const std::uint64_t now = g_epoch.load(std::memory_order_acquire);
  if (epoch != now) {
    shard = acquire_shard();
    epoch = now;
  }
  return shard;
}

}  // namespace detail

/// True when a registry is installed. Use to hoist snapshot-style work out
/// of loops; plain count()/record_duration() already self-check.
inline bool enabled() noexcept {
  return detail::g_registry.load(std::memory_order_relaxed) != nullptr;
}

/// Adds `delta` to a counter on the calling thread's shard; no-op when no
/// registry is installed. The slot is thread-owned, so the update is a
/// relaxed load+store pair (a plain add in machine code).
inline void count(Metric metric, std::int64_t delta = 1) noexcept {
  detail::Shard* shard = detail::current_shard();
  if (shard == nullptr) return;
  auto& slot = shard->counters[static_cast<std::size_t>(metric)];
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

/// Records one duration into a histogram metric; no-op when disabled.
void record_duration(Metric metric, std::int64_t ns) noexcept;

/// RAII duration probe: reads the clock only when a registry is installed
/// at construction time (so the disabled path never touches the clock).
class ScopedDuration {
 public:
  explicit ScopedDuration(Metric metric) noexcept : metric_(metric) {
    if (enabled()) start_ns_ = monotonic_ns();
  }
  ~ScopedDuration() {
    if (start_ns_ >= 0) record_duration(metric_, monotonic_ns() - start_ns_);
  }
  ScopedDuration(const ScopedDuration&) = delete;
  ScopedDuration& operator=(const ScopedDuration&) = delete;

 private:
  Metric metric_;
  std::int64_t start_ns_ = -1;
};

// -- snapshots --------------------------------------------------------------

struct CounterSnapshot {
  Metric metric{};
  std::int64_t value = 0;
};

struct HistogramSnapshot {
  Metric metric{};
  std::int64_t count = 0;
  std::int64_t sum_ns = 0;
  std::int64_t min_ns = 0;
  std::int64_t max_ns = 0;
  std::array<std::int64_t, kHistogramBuckets> buckets{};

  std::int64_t mean_ns() const noexcept {
    return count == 0 ? 0 : sum_ns / count;
  }
  /// Bucket-resolution quantile estimate (upper bound of the bucket the
  /// q-quantile falls in); q in [0, 1].
  std::int64_t quantile_ns(double q) const noexcept;
};

/// A merged, immutable view of a registry. Counters and histograms appear
/// in catalog (enum) order, zero-filled entries included, so two snapshots
/// of the same workload always line up entry for entry.
struct Snapshot {
  std::vector<CounterSnapshot> counters;      ///< size kCounterCount
  std::vector<HistogramSnapshot> histograms;  ///< size kHistogramCount

  std::int64_t counter(Metric metric) const noexcept;
  const HistogramSnapshot& histogram(Metric metric) const;
};

class Registry {
 public:
  Registry() = default;
  /// Uninstalls first if this registry is still the process-global one.
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Makes this registry the process-wide sink for obs::count /
  /// obs::record_duration. Replaces any previously installed registry
  /// (which keeps its accumulated shards).
  void install() noexcept;
  /// Detaches this registry if it is the installed one; idempotent.
  void uninstall() noexcept;
  /// The installed registry, or nullptr when metrics are disabled.
  static Registry* global() noexcept {
    return detail::g_registry.load(std::memory_order_acquire);
  }

  /// Merges all shards in shard-id order. Safe to call concurrently with
  /// writers (relaxed reads), but only quiescent snapshots are exact.
  Snapshot snapshot() const;

  /// Shards created so far (== threads that recorded at least one event
  /// while this registry was installed).
  std::size_t shard_count() const;

 private:
  friend detail::Shard* detail::acquire_shard() noexcept;
  detail::Shard* acquire();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail::Shard>> shards_;
};

}  // namespace dmfb::obs
