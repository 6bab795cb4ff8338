#include "sim/session.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/lockstep_bernoulli.hpp"

namespace dmfb::sim {

namespace {

// Runs handed to a worker per queue pop: large enough to amortise the
// atomic fetch_add, small enough that 10000-run experiments spread over a
// handful of threads. Partitioning never affects results: every run draws
// from its own (seed, run)-derived stream.
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

std::string store_key(const YieldQuery& query, const AssayWorkload& workload) {
  if (query.workload != Workload::kAssay) {
    return store_key(query, workload.design());
  }
  std::ostringstream key;
  key << "2|" << workload.design().fingerprint() << "|w"
      << workload.fingerprint() << '|' << query_key(query);
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
  evict_locked();
}

void Session::evict_locked() {
  // Only *completed* entries enter the eviction order: an in-flight future is
  // never in it, so eviction can never strand a thread that is about to
  // publish into an erased slot. Failed computations never get there (the
  // catch path erases them outright).
  while (completed_order_.size() > capacity_) {
    if (cache_.erase(completed_order_.front()) > 0) {
      ++stats_.evictions;
      obs::count(obs::Metric::kSessionEvictions);
    }
    completed_order_.pop_front();
  }
}

template <typename Result, typename Compute>
Result Session::memoized(const YieldQuery& query, const Compute& compute) {
  DMFB_EXPECTS(query.runs > 0);
  DMFB_EXPECTS(query.threads >= 0);
  DMFB_EXPECTS(query.target_ci_half_width >= 0.0);
  validate(query.fault, design_->cell_count());

  const std::string key = query_key(query);
  std::optional<std::promise<Result>> promise;  // set on cache miss
  std::shared_future<Result> future;
  std::shared_ptr<ResultCache> store;
  {
    const std::scoped_lock lock(mutex_);
    ++stats_.queries;
    const auto found = cache_.find(key);
    if (found != cache_.end()) {
      future = std::get<std::shared_future<Result>>(found->second);
    } else {
      promise.emplace();
      future = promise->get_future().share();
      cache_.emplace(key, future);
      store = result_cache_;
    }
  }
  obs::count(obs::Metric::kSessionQueries);
  if (!promise) {
    // A hit whose future is not yet ready is an in-flight join: this query
    // blocked on an identical computation started by another thread —
    // inherently schedule-dependent, hence an unstable counter. A miss is
    // counted below, once it resolves as computed or store-served.
    obs::count(obs::Metric::kSessionCacheHits);
    if (obs::enabled() && future.wait_for(std::chrono::seconds(0)) !=
                              std::future_status::ready) {
      obs::count(obs::Metric::kSessionInflightJoins);
    }
    return future.get();
  }

  constexpr bool kOperational = std::is_same_v<Result, OperationalEstimate>;
  Result result;
  bool from_store = false;
  std::string persistent_key;
  try {
    if (store) {
      persistent_key = workload_ ? store_key(query, *workload_)
                                 : store_key(query, *design_);
      if (const std::optional<std::string> payload =
              store->load(persistent_key)) {
        std::optional<Result> decoded;
        if constexpr (kOperational) {
          decoded = decode_operational(*payload);
        } else {
          decoded = decode_estimate(*payload);
        }
        if (decoded) {
          result = *decoded;
          from_store = true;
        }
      }
    }
    if (!from_store) result = compute();
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
      if constexpr (kOperational) {
        store->store(persistent_key, encode_operational(result));
      } else {
        store->store(persistent_key, encode_estimate(result));
      }
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
    completed_order_.push_back(key);
    evict_locked();
  }
  obs::count(from_store ? obs::Metric::kSessionStoreHits
                        : obs::Metric::kSessionComputed);
  return result;
}

YieldEstimate Session::run(const YieldQuery& query) {
  if (query.workload == Workload::kAssay) {
    return run_operational(query).operational;
  }
  return memoized<YieldEstimate>(query, [&] { return execute(query); });
}

OperationalEstimate Session::run_operational(const YieldQuery& query) {
  DMFB_EXPECTS(query.workload == Workload::kAssay);
  DMFB_EXPECTS(workload_ != nullptr);
  return memoized<OperationalEstimate>(
      query, [&] { return execute_operational(query); });
}

bool plans_incremental(const YieldQuery& query, const ChipDesign& design) {
  return query.engine == graph::MatchingEngine::kAuto &&
         expected_fault_fraction(query.fault, design) <=
             kAutoIncrementalDensityMax;
}

namespace {

/// Deals runs [begin, end) over up to `threads` workers in kBatchRuns
/// batches, calling run_batch(state, lo, hi) with the worker's own scratch
/// state. `scratch` holds one state per worker slot, made serially before
/// any thread starts and reused across adaptive chunks.
template <typename State, typename MakeState, typename RunBatch>
void deal_runs(std::int32_t begin, std::int32_t end, std::int32_t threads,
               std::vector<std::unique_ptr<State>>& scratch,
               const MakeState& make_state, const RunBatch& run_batch) {
  const std::int32_t batches = (end - begin + kBatchRuns - 1) / kBatchRuns;
  const std::int32_t workers = std::min(threads, batches);
  while (std::cmp_less(scratch.size(), std::max(workers, 1))) {
    scratch.push_back(make_state());
  }
  common::deal_items(workers, batches, [&](std::int32_t worker,
                                           std::int64_t batch) {
    const auto lo = begin + static_cast<std::int32_t>(batch) * kBatchRuns;
    run_batch(*scratch[static_cast<std::size_t>(worker)], lo,
              std::min(end, lo + kBatchRuns));
  });
}

/// The query loop both workloads share. Runs [0, query.runs) in chunks of
/// kAdaptiveChunkRuns when adaptive (else one chunk), calling
/// run_chunk(begin, end, threads), which returns the success count so far
/// that the stop rule reads. Chunk boundaries are fixed, so the realised
/// run count is a pure function of the query. Returns that count.
template <typename RunChunk>
std::int32_t run_chunks(const YieldQuery& query, const RunChunk& run_chunk) {
  obs::ScopedSpan span("session.query", "sim");
  if (span.active()) {
    span.set_args("{\"runs\":" + std::to_string(query.runs) +
                  (query.workload == Workload::kAssay
                       ? ",\"workload\":\"assay\"}"
                       : "}"));
  }
  const obs::ScopedDuration timer(obs::Metric::kSessionQueryNs);

  const std::int32_t threads = common::resolve_worker_threads(query.threads);
  const bool adaptive = query.target_ci_half_width > 0.0;
  const std::int32_t chunk = adaptive ? kAdaptiveChunkRuns : query.runs;
  std::int64_t chunks = 0;
  std::int32_t done = 0;
  while (done < query.runs) {
    const std::int32_t end = std::min(query.runs, done + chunk);
    const std::int64_t successes = run_chunk(done, end, threads);
    done = end;
    ++chunks;
    if (adaptive) {
      const Interval ci = wilson_interval(successes, done);
      if (ci.width() / 2.0 <= query.target_ci_half_width) break;
    }
  }
  // Flushed once per computed query (never per run): the chunk sequence is
  // a pure function of the query, so the totals are stable.
  if (obs::enabled()) {
    obs::count(obs::Metric::kSimRuns, done);
    obs::count(obs::Metric::kSimAdaptiveChunks, chunks);
  }
  return done;
}

}  // namespace

YieldEstimate Session::execute(const YieldQuery& query) const {
  // Either path returns the same verdict per run (a pure function of the
  // fault set), so partitioning runs over workers — each with its own
  // incremental history — never changes the estimate.
  const bool incremental = plans_incremental(query, *design_);
  // One count per computed structural query, keyed by the repair path: a
  // pure function of the query + design, so the totals are thread-invariant.
  if (obs::enabled()) {
    obs::count(incremental ? obs::Metric::kEngineIncremental
                           : obs::Metric::kEngineBatch);
  }
  // Repairs and resets the run just injected into `state`.
  const auto settle = [&](FaultState& state) {
    const bool ok =
        incremental
            ? state.repairable_incremental(query.policy, query.pool)
            : state.repairable(query.policy, query.engine, query.pool);
    state.reset();
    return ok;
  };
  // One lambda per draw contract (not a per-run branch): injector-path
  // functions never mix the two APIs (tools/lint_determinism.py's
  // mixed-rng-version rule). Under v1 a standalone Bernoulli model injects
  // whole lane batches in lock-step (sim/lockstep_bernoulli.hpp) when the
  // CPU has a kernel; the runs of a batch are still repaired in run order,
  // and the range's tail takes the scalar loop.
  const LockstepKernel* lockstep = lockstep_kernel_for(query.fault);
  const auto count_range_v1 = [&](FaultState& state, std::int32_t lo,
                                  std::int32_t hi) {
    std::int64_t successes = 0;
    std::int32_t run = lo;
    if (lockstep != nullptr && hi - lo >= lockstep->lanes) {
      LockstepBernoulli batch(*lockstep, design_->cell_count(),
                              1.0 - query.fault.param);
      for (; hi - run >= batch.lanes(); run += batch.lanes()) {
        for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
          batch.load(lane, run_stream(query.seed, run + lane));
        }
        batch.draw();
        for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
          (void)batch.inject(lane, state);
          if (settle(state)) ++successes;
        }
      }
    }
    for (; run < hi; ++run) {
      Rng rng = run_stream(query.seed, run);
      inject(query.fault, state, rng);
      if (settle(state)) ++successes;
    }
    return successes;
  };
  const auto count_range_v2 = [&](FaultState& state, std::int32_t lo,
                                  std::int32_t hi) {
    std::int64_t successes = 0;
    for (std::int32_t run = lo; run < hi; ++run) {
      CounterStream stream = run_stream_v2(query.seed, run);
      inject_v2(query.fault, state, stream);
      if (settle(state)) ++successes;
    }
    return successes;
  };

  std::vector<std::unique_ptr<FaultState>> scratch;
  std::atomic<std::int64_t> successes{0};
  const std::int32_t done = run_chunks(
      query, [&](std::int32_t begin, std::int32_t end, std::int32_t threads) {
        deal_runs(
            begin, end, threads, scratch,
            [&] { return std::make_unique<FaultState>(design_); },
            [&](FaultState& state, std::int32_t lo, std::int32_t hi) {
              successes.fetch_add(query.rng_version == RngVersion::kV2
                                      ? count_range_v2(state, lo, hi)
                                      : count_range_v1(state, lo, hi),
                                  std::memory_order_relaxed);
            });
        return successes.load(std::memory_order_relaxed);
      });
  if (obs::enabled()) obs::count(obs::Metric::kSimSuccesses, successes);
  return YieldEstimate::from_counts(successes, done);
}

OperationalEstimate Session::execute_operational(
    const YieldQuery& query) const {
  // Workers write disjoint slots of the chunk's `chunk_runs` (slot run -
  // chunk_begin), so the fold below reads them in run order regardless of
  // scheduling.
  std::vector<OperationalRun> chunk_runs;
  std::int32_t chunk_begin = 0;
  const auto eval_range_v1 = [&](OperationalState& state, std::int32_t lo,
                                 std::int32_t hi) {
    for (std::int32_t run = lo; run < hi; ++run) {
      Rng rng = run_stream(query.seed, run);
      inject(query.fault, state.faults(), rng);
      chunk_runs[static_cast<std::size_t>(run - chunk_begin)] =
          state.evaluate(query.policy, query.engine, query.pool);
      state.reset();
    }
  };
  const auto eval_range_v2 = [&](OperationalState& state, std::int32_t lo,
                                 std::int32_t hi) {
    for (std::int32_t run = lo; run < hi; ++run) {
      CounterStream stream = run_stream_v2(query.seed, run);
      inject_v2(query.fault, state.faults(), stream);
      chunk_runs[static_cast<std::size_t>(run - chunk_begin)] =
          state.evaluate(query.policy, query.engine, query.pool);
      state.reset();
    }
  };

  std::vector<std::unique_ptr<OperationalState>> scratch;
  std::int64_t structural = 0;
  std::int64_t operational = 0;
  double slowdown_sum = 0.0;
  double worst_slowdown = 0.0;
  const std::int32_t done = run_chunks(
      query, [&](std::int32_t begin, std::int32_t end, std::int32_t threads) {
        chunk_begin = begin;
        chunk_runs.resize(static_cast<std::size_t>(end - begin));
        deal_runs(
            begin, end, threads, scratch,
            [&] { return std::make_unique<OperationalState>(workload_); },
            [&](OperationalState& state, std::int32_t lo, std::int32_t hi) {
              if (query.rng_version == RngVersion::kV2) {
                eval_range_v2(state, lo, hi);
              } else {
                eval_range_v1(state, lo, hi);
              }
            });
        // Serial fold in run order: chunk boundaries are fixed, so the
        // floating accumulation order — and with it the estimate — never
        // depends on the thread count.
        for (const OperationalRun& run : chunk_runs) {
          if (run.structural) ++structural;
          if (run.operational) {
            ++operational;
            slowdown_sum += run.slowdown;
            worst_slowdown = std::max(worst_slowdown, run.slowdown);
          }
        }
        return operational;
      });
  if (obs::enabled()) {
    obs::count(obs::Metric::kSimSuccesses, structural);
    obs::count(obs::Metric::kSimOpSuccesses, operational);
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

}  // namespace dmfb::sim
