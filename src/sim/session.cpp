#include "sim/session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmfb::sim {

namespace {

// Runs handed to a worker per queue pop: the same batch size as the legacy
// engine — large enough to amortise the atomic fetch_add, small enough that
// 10000-run experiments spread over a handful of threads. Partitioning never
// affects results: every run draws from its own (seed, run)-derived stream.
constexpr std::int32_t kBatchRuns = 64;

}  // namespace

YieldEstimate YieldEstimate::from_counts(std::int64_t successes,
                                         std::int64_t runs) {
  DMFB_EXPECTS(runs >= 0);
  DMFB_EXPECTS(successes >= 0 && successes <= runs);
  YieldEstimate estimate;
  estimate.runs = runs;
  estimate.successes = successes;
  estimate.value =
      runs == 0 ? 0.0
                : static_cast<double>(successes) / static_cast<double>(runs);
  estimate.ci95 = wilson_interval(successes, runs);  // [0, 1] when runs == 0
  return estimate;
}

Rng run_stream(std::uint64_t seed, std::int32_t run) noexcept {
  // One splitmix64 step over (seed, run) picks the stream seed; the Rng
  // constructor's own splitmix64 pass then decorrelates the 256-bit state.
  std::uint64_t s =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(run) + 1);
  return Rng(splitmix64(s));
}

CounterStream run_stream_v2(std::uint64_t seed, std::int32_t run) noexcept {
  std::uint64_t s =
      seed + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(run) + 1);
  // The first splitmix64 output is the v1 xoshiro seed for this (seed, run);
  // skipping it keys the v2 stream off the *next* finalized value, so the
  // two contracts never share observable bits.
  (void)splitmix64(s);
  return CounterStream(splitmix64(s));
}

namespace {

void append_fault_key(std::ostringstream& key, const FaultModel& fault) {
  key << static_cast<int>(fault.kind) << '|'
      << std::bit_cast<std::uint64_t>(fault.param) << '|'
      << fault.cluster.radius << '|'
      << std::bit_cast<std::uint64_t>(fault.cluster.core_kill) << '|'
      << std::bit_cast<std::uint64_t>(fault.cluster.edge_kill);
  if (fault.kind == FaultModel::Kind::kMixture) {
    // Bracketed component list: an ordered mixture key can never collide
    // with a concrete kind or a differently-ordered mixture.
    key << "|[";
    for (const FaultModel& component : fault.components) {
      append_fault_key(key, component);
      key << ';';
    }
    key << ']';
  }
}

}  // namespace

std::string query_key(const YieldQuery& query) {
  std::ostringstream key;
  append_fault_key(key, query.fault);
  key << '|' << query.runs << '|' << query.seed << '|'
      << static_cast<int>(query.policy) << '|'
      << static_cast<int>(query.engine) << '|' << static_cast<int>(query.pool)
      << '|' << std::bit_cast<std::uint64_t>(query.target_ci_half_width)
      << '|' << static_cast<int>(query.workload) << '|'
      << static_cast<int>(query.rng_version);
  // `threads` is deliberately absent: it never affects the estimate.
  return key.str();
}

std::string store_key(const YieldQuery& query, const ChipDesign& design) {
  // "2|" is the store-schema version: bump it whenever query_key's field
  // set, the fingerprint recipe, the payload codecs, or the answer a query
  // computes change, so stale on-disk records become misses instead of
  // silently-wrong answers. Version 2: operational plans come from the CSR
  // matcher, whose Dinic may pick a different maximum matching.
  std::ostringstream key;
  key << "2|" << design.fingerprint() << '|' << query_key(query);
  return key.str();
}

namespace {

void append_bits(std::ostringstream& out, double value) {
  out << '|' << std::bit_cast<std::uint64_t>(value);
}

void append_estimate_fields(std::ostringstream& out,
                            const YieldEstimate& estimate) {
  append_bits(out, estimate.value);
  append_bits(out, estimate.ci95.lo);
  append_bits(out, estimate.ci95.hi);
  out << '|' << estimate.runs << '|' << estimate.successes;
}

/// Strict '|'-field cursor over a payload; any malformed field poisons the
/// parse (ok() goes false) and the decode returns nullopt.
class FieldReader {
 public:
  explicit FieldReader(std::string_view payload) : rest_(payload) {}

  std::uint64_t take_u64() { return parse_u64(next_token()); }
  double take_double_bits() { return std::bit_cast<double>(take_u64()); }
  std::int64_t take_i64() {
    return static_cast<std::int64_t>(parse_u64(next_token()));
  }
  bool finished() const noexcept { return ok_ && rest_.empty() && done_; }
  bool ok() const noexcept { return ok_; }

 private:
  std::string_view next_token() {
    if (done_) {
      ok_ = false;
      return {};
    }
    const std::size_t bar = rest_.find('|');
    std::string_view token;
    if (bar == std::string_view::npos) {
      token = rest_;
      rest_ = {};
      done_ = true;
    } else {
      token = rest_.substr(0, bar);
      rest_.remove_prefix(bar + 1);
    }
    return token;
  }
  std::uint64_t parse_u64(std::string_view token) {
    if (token.empty()) ok_ = false;
    std::uint64_t value = 0;
    for (const char ch : token) {
      if (ch < '0' || ch > '9') {
        ok_ = false;
        return 0;
      }
      value = value * 10 + static_cast<std::uint64_t>(ch - '0');
    }
    return value;
  }

  std::string_view rest_;
  bool ok_ = true;
  bool done_ = false;
};

bool read_estimate_fields(FieldReader& reader, YieldEstimate& estimate) {
  estimate.value = reader.take_double_bits();
  estimate.ci95.lo = reader.take_double_bits();
  estimate.ci95.hi = reader.take_double_bits();
  estimate.runs = reader.take_i64();
  estimate.successes = reader.take_i64();
  return reader.ok();
}

}  // namespace

std::string encode_estimate(const YieldEstimate& estimate) {
  std::ostringstream out;
  out << 'Y';
  append_estimate_fields(out, estimate);
  return out.str();
}

std::optional<YieldEstimate> decode_estimate(std::string_view payload) {
  if (!payload.starts_with("Y|")) return std::nullopt;
  FieldReader reader(payload.substr(2));
  YieldEstimate estimate;
  if (!read_estimate_fields(reader, estimate) || !reader.finished()) {
    return std::nullopt;
  }
  return estimate;
}

std::string encode_operational(const OperationalEstimate& estimate) {
  std::ostringstream out;
  out << 'O';
  append_estimate_fields(out, estimate.structural);
  append_estimate_fields(out, estimate.operational);
  append_bits(out, estimate.mean_slowdown);
  append_bits(out, estimate.worst_slowdown);
  return out.str();
}

std::optional<OperationalEstimate> decode_operational(
    std::string_view payload) {
  if (!payload.starts_with("O|")) return std::nullopt;
  FieldReader reader(payload.substr(2));
  OperationalEstimate estimate;
  if (!read_estimate_fields(reader, estimate.structural) ||
      !read_estimate_fields(reader, estimate.operational)) {
    return std::nullopt;
  }
  estimate.mean_slowdown = reader.take_double_bits();
  estimate.worst_slowdown = reader.take_double_bits();
  if (!reader.finished()) return std::nullopt;
  return estimate;
}

Session::Session(std::shared_ptr<const ChipDesign> design)
    : design_(std::move(design)) {
  DMFB_EXPECTS(design_ != nullptr);
}

Session::Session(const biochip::HexArray& array)
    : Session(ChipDesign::make(array)) {}

namespace {

std::shared_ptr<const ChipDesign> design_of(
    const std::shared_ptr<const AssayWorkload>& workload) {
  DMFB_EXPECTS(workload != nullptr);
  return workload->design_ptr();
}

// Metrics for one cache lookup (both the structural and the operational
// cache). A hit whose future is not yet ready is an in-flight join: this
// query blocked on an identical computation started by another thread —
// inherently schedule-dependent, hence an unstable counter. A miss is NOT
// counted here: whether it resolves as computed or store-served is only
// known after the promise-owner path runs (see run()).
template <typename SharedFuture>
void note_cache_outcome(bool hit, const SharedFuture& future) {
  obs::count(obs::Metric::kSessionQueries);
  if (!hit) return;
  obs::count(obs::Metric::kSessionCacheHits);
  if (obs::enabled() &&
      future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    obs::count(obs::Metric::kSessionInflightJoins);
  }
}

}  // namespace

Session::Session(std::shared_ptr<const AssayWorkload> workload)
    : Session(design_of(workload)) {
  workload_ = std::move(workload);
}

Session::Stats Session::stats() const {
  const std::scoped_lock lock(mutex_);
  return stats_;
}

void Session::attach_result_cache(std::shared_ptr<ResultCache> cache) {
  const std::scoped_lock lock(mutex_);
  result_cache_ = std::move(cache);
}

void Session::set_cache_capacity(std::size_t max_entries) {
  DMFB_EXPECTS(max_entries > 0);
  const std::scoped_lock lock(mutex_);
  capacity_ = max_entries;
  // Shrinking below the current population evicts immediately, oldest
  // completion first — same order note_completed_locked would have used.
  const auto trim = [this](auto& cache, std::deque<std::string>& order) {
    while (order.size() > capacity_) {
      if (cache.erase(order.front()) > 0) {
        ++stats_.evictions;
        obs::count(obs::Metric::kSessionEvictions);
      }
      order.pop_front();
    }
  };
  trim(cache_, completed_order_);
  trim(operational_cache_, operational_completed_order_);
}

template <typename Map>
void Session::note_completed_locked(Map& cache, std::deque<std::string>& order,
                                    const std::string& key) {
  // Only *completed* entries enter the eviction order: an in-flight future is
  // never in `order`, so eviction can never strand a thread that is about to
  // publish into an erased slot. Failed computations never get here (the
  // catch path erases them outright).
  order.push_back(key);
  while (order.size() > capacity_) {
    if (cache.erase(order.front()) > 0) {
      ++stats_.evictions;
      obs::count(obs::Metric::kSessionEvictions);
    }
    order.pop_front();
  }
}

YieldEstimate Session::run(const YieldQuery& query) {
  if (query.workload == Workload::kAssay) {
    return run_operational(query).operational;
  }
  DMFB_EXPECTS(query.runs > 0);
  DMFB_EXPECTS(query.threads >= 0);
  DMFB_EXPECTS(query.target_ci_half_width >= 0.0);
  validate(query.fault, *design_);

  const std::string key = query_key(query);
  std::optional<std::promise<YieldEstimate>> promise;  // set on cache miss
  std::shared_future<YieldEstimate> future;
  std::shared_ptr<ResultCache> store;
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.queries;
    const auto found = cache_.find(key);
    if (found != cache_.end()) {
      future = found->second;
    } else {
      promise.emplace();
      future = promise->get_future().share();
      cache_.emplace(key, future);
      store = result_cache_;
    }
  }
  note_cache_outcome(!promise.has_value(), future);
  if (promise) {
    YieldEstimate result;
    bool from_store = false;
    std::string persistent_key;
    try {
      if (store) {
        persistent_key = store_key(query, *design_);
        if (const std::optional<std::string> payload =
                store->load(persistent_key)) {
          if (const std::optional<YieldEstimate> decoded =
                  decode_estimate(*payload)) {
            result = *decoded;
            from_store = true;
          }
        }
      }
      if (!from_store) result = execute(query);
    } catch (...) {
      // Fail every waiter with the original error, then drop the entry so a
      // later identical query may retry.
      promise->set_exception(std::current_exception());
      const std::scoped_lock lock(mutex_);
      cache_.erase(key);
      return future.get();  // rethrows for this caller too
    }
    promise->set_value(result);
    if (store && !from_store) {
      try {
        store->store(persistent_key, encode_estimate(result));
      } catch (...) {
        // Persistence is best-effort; the published in-memory answer stands.
      }
    }
    {
      const std::scoped_lock lock(mutex_);
      if (from_store) {
        ++stats_.store_hits;
      } else {
        ++stats_.computed;
      }
      note_completed_locked(cache_, completed_order_, key);
    }
    obs::count(from_store ? obs::Metric::kSessionStoreHits
                          : obs::Metric::kSessionComputed);
  }
  return future.get();
}

OperationalEstimate Session::run_operational(const YieldQuery& query) {
  DMFB_EXPECTS(query.workload == Workload::kAssay);
  DMFB_EXPECTS(workload_ != nullptr);
  DMFB_EXPECTS(query.runs > 0);
  DMFB_EXPECTS(query.threads >= 0);
  DMFB_EXPECTS(query.target_ci_half_width >= 0.0);
  validate(query.fault, *design_);

  const std::string key = query_key(query);
  std::optional<std::promise<OperationalEstimate>> promise;
  std::shared_future<OperationalEstimate> future;
  std::shared_ptr<ResultCache> store;
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.queries;
    const auto found = operational_cache_.find(key);
    if (found != operational_cache_.end()) {
      future = found->second;
    } else {
      promise.emplace();
      future = promise->get_future().share();
      operational_cache_.emplace(key, future);
      store = result_cache_;
    }
  }
  note_cache_outcome(!promise.has_value(), future);
  if (promise) {
    OperationalEstimate result;
    bool from_store = false;
    std::string persistent_key;
    try {
      if (store) {
        persistent_key = store_key(query, *design_);
        if (const std::optional<std::string> payload =
                store->load(persistent_key)) {
          if (const std::optional<OperationalEstimate> decoded =
                  decode_operational(*payload)) {
            result = *decoded;
            from_store = true;
          }
        }
      }
      if (!from_store) result = execute_operational(query);
    } catch (...) {
      promise->set_exception(std::current_exception());
      const std::scoped_lock lock(mutex_);
      operational_cache_.erase(key);
      return future.get();
    }
    promise->set_value(result);
    if (store && !from_store) {
      try {
        store->store(persistent_key, encode_operational(result));
      } catch (...) {
        // Persistence is best-effort; the published in-memory answer stands.
      }
    }
    {
      const std::scoped_lock lock(mutex_);
      if (from_store) {
        ++stats_.store_hits;
      } else {
        ++stats_.computed;
      }
      note_completed_locked(operational_cache_, operational_completed_order_,
                            key);
    }
    obs::count(from_store ? obs::Metric::kSessionStoreHits
                          : obs::Metric::kSessionComputed);
  }
  return future.get();
}

std::vector<YieldEstimate> Session::run_all(
    std::span<const YieldQuery> queries) {
  std::vector<YieldEstimate> results;
  results.reserve(queries.size());
  for (const YieldQuery& query : queries) results.push_back(run(query));
  return results;
}

namespace {

// One count per computed structural query, keyed by the engine the planner
// actually chose. Pure function of the query + design, so the totals are
// thread-invariant.
void note_engine_plan(const EnginePlan& plan) {
  if (plan.incremental) {
    obs::count(obs::Metric::kEngineIncremental);
    return;
  }
  switch (plan.engine) {
    case graph::MatchingEngine::kHopcroftKarp:
      obs::count(obs::Metric::kEngineHopcroftKarp);
      break;
    case graph::MatchingEngine::kKuhn:
      obs::count(obs::Metric::kEngineKuhn);
      break;
    case graph::MatchingEngine::kDinic:
      obs::count(obs::Metric::kEngineDinic);
      break;
    case graph::MatchingEngine::kPushRelabel:
      obs::count(obs::Metric::kEnginePushRelabel);
      break;
    case graph::MatchingEngine::kAuto:
      break;  // resolve_engine never returns kAuto
  }
}

}  // namespace

EnginePlan plan_engine(const YieldQuery& query, const ChipDesign& design) {
  if (query.engine != graph::MatchingEngine::kAuto) {
    return {false, query.engine};
  }
  if (expected_fault_fraction(query.fault, design) <=
      kAutoIncrementalDensityMax) {
    return {true, graph::MatchingEngine::kHopcroftKarp};
  }
  const ChipDesign::Skeleton& skeleton =
      design.skeleton(query.policy, query.pool);
  return {false,
          graph::resolve_engine(
              graph::MatchingEngine::kAuto,
              static_cast<std::int32_t>(skeleton.cover.size()))};
}

std::int64_t Session::successes_in_range(
    const YieldQuery& query, std::int32_t begin, std::int32_t end,
    std::int32_t threads,
    std::vector<std::unique_ptr<FaultState>>& scratch) const {
  // Worker-slot scratch is created on first use (serially, before any
  // thread spawn) and reused across adaptive chunks.
  const auto state_at = [&](std::size_t slot) -> FaultState& {
    if (scratch.size() <= slot) scratch.resize(slot + 1);
    if (!scratch[slot]) scratch[slot] = std::make_unique<FaultState>(design_);
    return *scratch[slot];
  };
  // Either path returns the same verdict per run (a pure function of the
  // fault set), so partitioning runs over workers — each with its own
  // incremental history — never changes the estimate.
  const EnginePlan plan = plan_engine(query, *design_);
  // One lambda per draw contract (not a per-run branch): the v1 kernel
  // stays untouched, and injector-path functions never mix the two APIs
  // (tools/lint_determinism.py's mixed-rng-version rule).
  const auto count_range_v1 = [&](FaultState& state, std::int32_t lo,
                                  std::int32_t hi) {
    std::int64_t successes = 0;
    for (std::int32_t run = lo; run < hi; ++run) {
      Rng rng = run_stream(query.seed, run);
      inject(query.fault, state, rng);
      const bool ok =
          plan.incremental
              ? state.repairable_incremental(query.policy, query.pool)
              : state.repairable(query.policy, plan.engine, query.pool);
      if (ok) ++successes;
      state.reset();
    }
    return successes;
  };
  const auto count_range_v2 = [&](FaultState& state, std::int32_t lo,
                                  std::int32_t hi) {
    std::int64_t successes = 0;
    for (std::int32_t run = lo; run < hi; ++run) {
      CounterStream stream = run_stream_v2(query.seed, run);
      inject_v2(query.fault, state, stream);
      const bool ok =
          plan.incremental
              ? state.repairable_incremental(query.policy, query.pool)
              : state.repairable(query.policy, plan.engine, query.pool);
      if (ok) ++successes;
      state.reset();
    }
    return successes;
  };
  const auto count_range = [&](FaultState& state, std::int32_t lo,
                               std::int32_t hi) {
    return query.rng_version == RngVersion::kV2 ? count_range_v2(state, lo, hi)
                                                : count_range_v1(state, lo, hi);
  };

  const std::int32_t batch_count = (end - begin + kBatchRuns - 1) / kBatchRuns;
  const std::int32_t workers = std::min(threads, batch_count);
  if (workers <= 1) {
    return count_range(state_at(0), begin, end);
  }

  for (std::int32_t t = 0; t < workers; ++t) state_at(static_cast<std::size_t>(t));
  std::atomic<std::int32_t> next_batch{0};
  std::atomic<std::int64_t> total{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&](std::size_t slot) {
    try {
      FaultState& state = *scratch[slot];
      std::int64_t successes = 0;
      for (;;) {
        const std::int32_t batch =
            next_batch.fetch_add(1, std::memory_order_relaxed);
        if (batch >= batch_count) break;
        const std::int32_t lo = begin + batch * kBatchRuns;
        successes += count_range(state, lo, std::min(end, lo + kBatchRuns));
      }
      total.fetch_add(successes, std::memory_order_relaxed);
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      // Park the queue so the other workers drain quickly.
      next_batch.store(batch_count, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (std::int32_t t = 0; t < workers; ++t) {
    pool.emplace_back(worker, static_cast<std::size_t>(t));
  }
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
  return total.load();
}

void Session::operational_runs_in_range(
    const YieldQuery& query, std::int32_t begin, std::int32_t end,
    std::int32_t threads,
    std::vector<std::unique_ptr<OperationalState>>& scratch,
    std::span<OperationalRun> out) const {
  const auto state_at = [&](std::size_t slot) -> OperationalState& {
    if (scratch.size() <= slot) scratch.resize(slot + 1);
    if (!scratch[slot]) {
      scratch[slot] = std::make_unique<OperationalState>(workload_);
    }
    return *scratch[slot];
  };
  const auto eval_range_v1 = [&](OperationalState& state, std::int32_t lo,
                                 std::int32_t hi) {
    for (std::int32_t run = lo; run < hi; ++run) {
      Rng rng = run_stream(query.seed, run);
      inject(query.fault, state.faults(), rng);
      out[static_cast<std::size_t>(run - begin)] =
          state.evaluate(query.policy, query.engine, query.pool);
      state.reset();
    }
  };
  const auto eval_range_v2 = [&](OperationalState& state, std::int32_t lo,
                                 std::int32_t hi) {
    for (std::int32_t run = lo; run < hi; ++run) {
      CounterStream stream = run_stream_v2(query.seed, run);
      inject_v2(query.fault, state.faults(), stream);
      out[static_cast<std::size_t>(run - begin)] =
          state.evaluate(query.policy, query.engine, query.pool);
      state.reset();
    }
  };
  const auto eval_range = [&](OperationalState& state, std::int32_t lo,
                              std::int32_t hi) {
    if (query.rng_version == RngVersion::kV2) {
      eval_range_v2(state, lo, hi);
    } else {
      eval_range_v1(state, lo, hi);
    }
  };

  const std::int32_t batch_count = (end - begin + kBatchRuns - 1) / kBatchRuns;
  const std::int32_t workers = std::min(threads, batch_count);
  if (workers <= 1) {
    eval_range(state_at(0), begin, end);
    return;
  }

  for (std::int32_t t = 0; t < workers; ++t) {
    state_at(static_cast<std::size_t>(t));
  }
  std::atomic<std::int32_t> next_batch{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&](std::size_t slot) {
    try {
      OperationalState& state = *scratch[slot];
      for (;;) {
        const std::int32_t batch =
            next_batch.fetch_add(1, std::memory_order_relaxed);
        if (batch >= batch_count) break;
        const std::int32_t lo = begin + batch * kBatchRuns;
        eval_range(state, lo, std::min(end, lo + kBatchRuns));
      }
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      next_batch.store(batch_count, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (std::int32_t t = 0; t < workers; ++t) {
    pool.emplace_back(worker, static_cast<std::size_t>(t));
  }
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

OperationalEstimate Session::execute_operational(
    const YieldQuery& query) const {
  obs::ScopedSpan span("session.query", "sim");
  if (span.active()) {
    span.set_args("{\"runs\":" + std::to_string(query.runs) +
                  ",\"workload\":\"assay\"}");
  }
  const obs::ScopedDuration timer(obs::Metric::kSessionQueryNs);

  const std::int32_t threads = common::resolve_worker_threads(query.threads);
  const bool adaptive = query.target_ci_half_width > 0.0;
  const std::int32_t chunk = adaptive ? kAdaptiveChunkRuns : query.runs;

  std::vector<std::unique_ptr<OperationalState>> scratch;
  std::vector<OperationalRun> chunk_runs;
  std::int64_t structural = 0;
  std::int64_t operational = 0;
  std::int64_t chunks = 0;
  double slowdown_sum = 0.0;
  double worst_slowdown = 0.0;
  std::int32_t done = 0;
  while (done < query.runs) {
    const std::int32_t end = std::min(query.runs, done + chunk);
    chunk_runs.resize(static_cast<std::size_t>(end - done));
    operational_runs_in_range(query, done, end, threads, scratch, chunk_runs);
    // Serial fold in run order: chunk boundaries are fixed, so the floating
    // accumulation order — and with it the estimate — never depends on the
    // thread count.
    for (const OperationalRun& run : chunk_runs) {
      if (run.structural) ++structural;
      if (run.operational) {
        ++operational;
        slowdown_sum += run.slowdown;
        worst_slowdown = std::max(worst_slowdown, run.slowdown);
      }
    }
    done = end;
    ++chunks;
    if (adaptive) {
      const Interval ci = wilson_interval(operational, done);
      if (ci.width() / 2.0 <= query.target_ci_half_width) break;
    }
  }
  if (obs::enabled()) {
    obs::count(obs::Metric::kSimRuns, done);
    obs::count(obs::Metric::kSimSuccesses, structural);
    obs::count(obs::Metric::kSimOpSuccesses, operational);
    obs::count(obs::Metric::kSimAdaptiveChunks, chunks);
  }
  OperationalEstimate estimate;
  estimate.structural = YieldEstimate::from_counts(structural, done);
  estimate.operational = YieldEstimate::from_counts(operational, done);
  estimate.mean_slowdown =
      operational == 0 ? 0.0
                       : slowdown_sum / static_cast<double>(operational);
  estimate.worst_slowdown = worst_slowdown;
  return estimate;
}

YieldEstimate Session::execute(const YieldQuery& query) const {
  obs::ScopedSpan span("session.query", "sim");
  if (span.active()) {
    span.set_args("{\"runs\":" + std::to_string(query.runs) + "}");
  }
  const obs::ScopedDuration timer(obs::Metric::kSessionQueryNs);
  if (obs::enabled()) note_engine_plan(plan_engine(query, *design_));

  const std::int32_t threads = common::resolve_worker_threads(query.threads);
  const bool adaptive = query.target_ci_half_width > 0.0;
  const std::int32_t chunk = adaptive ? kAdaptiveChunkRuns : query.runs;

  std::vector<std::unique_ptr<FaultState>> scratch;  // reused across chunks
  std::int64_t successes = 0;
  std::int64_t chunks = 0;
  std::int32_t done = 0;
  while (done < query.runs) {
    const std::int32_t end = std::min(query.runs, done + chunk);
    successes += successes_in_range(query, done, end, threads, scratch);
    done = end;
    ++chunks;
    if (adaptive) {
      const Interval ci = wilson_interval(successes, done);
      if (ci.width() / 2.0 <= query.target_ci_half_width) break;
    }
  }
  // Flushed once per computed query (never per run): the chunk sequence is
  // a pure function of the query, so all three totals are stable.
  if (obs::enabled()) {
    obs::count(obs::Metric::kSimRuns, done);
    obs::count(obs::Metric::kSimSuccesses, successes);
    obs::count(obs::Metric::kSimAdaptiveChunks, chunks);
  }
  return YieldEstimate::from_counts(successes, done);
}

}  // namespace dmfb::sim
