#include "obs/metrics.hpp"

#include <bit>
#include <chrono>

namespace dmfb::obs {
namespace {

// Catalog metadata, in exact Metric enum order. `stable` marks counters
// whose merged total is invariant under thread count and schedule for the
// same workload; see docs/OBSERVABILITY.md for the argument per metric.
constexpr MetricInfo kMetricInfo[kMetricCount] = {
    {"sim.session.queries", MetricKind::kCounter, true,
     "Session::run/run_operational calls answered"},
    {"sim.session.cache_hits", MetricKind::kCounter, true,
     "queries served from the session result cache"},
    {"sim.session.computed", MetricKind::kCounter, true,
     "distinct queries actually simulated"},
    {"sim.session.inflight_joins", MetricKind::kCounter, false,
     "cache hits that waited on an in-flight identical query"},
    {"sim.runs", MetricKind::kCounter, true,
     "Monte-Carlo runs executed"},
    {"sim.successes", MetricKind::kCounter, true,
     "structurally repairable runs"},
    {"sim.operational_successes", MetricKind::kCounter, true,
     "operationally successful runs (assay executes after repair)"},
    {"sim.adaptive_chunks", MetricKind::kCounter, true,
     "adaptive-stopping chunk evaluations (1 for fixed-run queries)"},
    {"sim.incremental.diff_repairs", MetricKind::kCounter, false,
     "never counted (kept for perfbench/layers.cpp)"},
    {"sim.incremental.full_rebuilds", MetricKind::kCounter, false,
     "never counted (kept for perfbench/layers.cpp)"},
    {"sim.incremental.churn_bailouts", MetricKind::kCounter, false,
     "never counted (kept for perfbench/layers.cpp)"},
    {"fault.injections", MetricKind::kCounter, true,
     "sim::inject calls (one per Monte-Carlo run per component)"},
    {"fault.cells_faulted", MetricKind::kCounter, true,
     "cells marked faulty across all injections"},
    {"fault.cell_trials", MetricKind::kCounter, true,
     "per-cell fault trials evaluated by the injectors"},
    {"fault.classification_draws", MetricKind::kCounter, true,
     "catastrophic-defect classification draws"},
    {"campaign.grid_points", MetricKind::kCounter, true,
     "campaign grid points executed"},
    {"campaign.unique_points", MetricKind::kCounter, true,
     "distinct session computations across the grid"},
    {"campaign.deduped_points", MetricKind::kCounter, true,
     "grid points served by the session cache"},
    {"campaign.outer_workers", MetricKind::kCounter, false,
     "point-level worker threads used by the last campaign run"},
    {"campaign.inner_threads", MetricKind::kCounter, false,
     "inner Monte-Carlo threads per point used by the last campaign run"},
    {"sim.session.store_hits", MetricKind::kCounter, false,
     "queries answered from an attached on-disk result store"},
    {"sim.session.evictions", MetricKind::kCounter, false,
     "completed session-cache entries evicted by the capacity bound"},
    {"serve.store.hits", MetricKind::kCounter, false,
     "result-store records loaded intact"},
    {"serve.store.misses", MetricKind::kCounter, false,
     "result-store lookups that found no usable record"},
    {"serve.store.writes", MetricKind::kCounter, false,
     "result-store records persisted via write-temp-then-rename"},
    {"serve.store.corrupt_dropped", MetricKind::kCounter, false,
     "torn or corrupt result-store records treated as misses"},
    {"sim.session.query_ns", MetricKind::kDurationHistogram, false,
     "wall time of one session query execution (cache misses only)"},
    {"campaign.point_ns", MetricKind::kDurationHistogram, false,
     "wall time of one campaign grid point (dedupe hits included)"},
    {"campaign.worker_busy_ns", MetricKind::kDurationHistogram, false,
     "per campaign worker: wall time spent executing points"},
    {"campaign.worker_idle_ns", MetricKind::kDurationHistogram, false,
     "per campaign worker: wall time waiting for work"},
    {"reconfig.plan_ns", MetricKind::kDurationHistogram, false,
     "operational run: reconfiguration planning"},
    {"assay.schedule_ns", MetricKind::kDurationHistogram, false,
     "operational run: assay re-scheduling on the surviving modules"},
    {"fluidics.route_ns", MetricKind::kDurationHistogram, false,
     "operational run: droplet transport re-routing"},
};

std::size_t bucket_of(std::int64_t ns) noexcept {
  if (ns <= 0) return 0;
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(ns)));
}

}  // namespace

namespace detail {

std::atomic<Registry*> g_registry{nullptr};
std::atomic<std::uint64_t> g_epoch{1};

Shard* acquire_shard() noexcept {
  Registry* registry = g_registry.load(std::memory_order_acquire);
  if (registry == nullptr) return nullptr;
  return registry->acquire();
}

}  // namespace detail

const MetricInfo& info(Metric metric) noexcept {
  return kMetricInfo[static_cast<std::size_t>(metric)];
}

std::int64_t monotonic_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void record_duration(Metric metric, std::int64_t ns) noexcept {
  detail::Shard* shard = detail::current_shard();
  if (shard == nullptr) return;
  if (ns < 0) ns = 0;
  auto& histogram =
      shard->histograms[static_cast<std::size_t>(metric) - kFirstHistogram];
  const std::int64_t seen =
      histogram.count.load(std::memory_order_relaxed);
  if (seen == 0 || ns < histogram.min_ns.load(std::memory_order_relaxed))
    histogram.min_ns.store(ns, std::memory_order_relaxed);
  if (seen == 0 || ns > histogram.max_ns.load(std::memory_order_relaxed))
    histogram.max_ns.store(ns, std::memory_order_relaxed);
  histogram.count.store(seen + 1, std::memory_order_relaxed);
  histogram.sum_ns.store(histogram.sum_ns.load(std::memory_order_relaxed) + ns,
                         std::memory_order_relaxed);
  auto& slot = histogram.buckets[bucket_of(ns)];
  slot.store(slot.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
}

std::int64_t HistogramSnapshot::quantile_ns(double q) const noexcept {
  if (count == 0) return 0;
  if (q <= 0.0) return min_ns;
  if (q >= 1.0) return max_ns;
  // Rank of the q-quantile (1-based), then walk buckets to find it.
  const auto rank =
      static_cast<std::int64_t>(q * static_cast<double>(count - 1)) + 1;
  std::int64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Upper bound of bucket b, clamped into the observed range.
      const std::int64_t upper =
          b == 0 ? 0 : static_cast<std::int64_t>((std::uint64_t{1} << b) - 1);
      return std::min(std::max(upper, min_ns), max_ns);
    }
  }
  return max_ns;
}

std::int64_t Snapshot::counter(Metric metric) const noexcept {
  return counters[static_cast<std::size_t>(metric)].value;
}

const HistogramSnapshot& Snapshot::histogram(Metric metric) const {
  return histograms[static_cast<std::size_t>(metric) - kFirstHistogram];
}

Registry::~Registry() { uninstall(); }

void Registry::install() noexcept {
  detail::g_registry.store(this, std::memory_order_release);
  detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

void Registry::uninstall() noexcept {
  Registry* expected = this;
  if (detail::g_registry.compare_exchange_strong(expected, nullptr,
                                                 std::memory_order_acq_rel)) {
    detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
  }
}

detail::Shard* Registry::acquire() {
  const std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<detail::Shard>());
  return shards_.back().get();
}

std::size_t Registry::shard_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shards_.size();
}

Snapshot Registry::snapshot() const {
  Snapshot result;
  result.counters.resize(kCounterCount);
  result.histograms.resize(kHistogramCount);
  for (std::size_t m = 0; m < kCounterCount; ++m)
    result.counters[m].metric = static_cast<Metric>(m);
  for (std::size_t h = 0; h < kHistogramCount; ++h)
    result.histograms[h].metric = static_cast<Metric>(kFirstHistogram + h);

  const std::lock_guard<std::mutex> lock(mutex_);
  // Shards merge in registration (shard-id) order. Counter totals are sums
  // of int64, so the order cannot matter; it is fixed anyway so the merge
  // itself is one less variable when auditing a snapshot diff.
  for (const auto& shard : shards_) {
    for (std::size_t m = 0; m < kCounterCount; ++m) {
      result.counters[m].value +=
          shard->counters[m].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kHistogramCount; ++h) {
      const auto& from = shard->histograms[h];
      auto& into = result.histograms[h];
      const std::int64_t count = from.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      const std::int64_t min_ns = from.min_ns.load(std::memory_order_relaxed);
      const std::int64_t max_ns = from.max_ns.load(std::memory_order_relaxed);
      if (into.count == 0 || min_ns < into.min_ns) into.min_ns = min_ns;
      if (into.count == 0 || max_ns > into.max_ns) into.max_ns = max_ns;
      into.count += count;
      into.sum_ns += from.sum_ns.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        into.buckets[b] += from.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return result;
}

}  // namespace dmfb::obs
