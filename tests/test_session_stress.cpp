// Concurrency stress suite for the session/campaign/obs stack — the
// workload the ThreadSanitizer CI job runs (ctest label: concurrency).
//
// The determinism contract ("bit-identical at any thread count") is only as
// good as the machinery's freedom from data races, so this file hammers the
// three concurrent structures the stack rests on:
//
//   1. one sim::Session shared by many threads issuing *overlapping* query
//      sets (cache hits, misses and in-flight joins all interleave),
//   2. the obs::Registry TLS install-epoch handshake, flipped between
//      registries and snapshotted while instrumented workers are running
//      (registries outlive the workers, per the documented lifecycle), and
//   3. the campaign runner at 8 outer workers against a serial reference.
//
// Every test also re-checks bit-identity, because a benign-looking race is
// exactly the kind of bug that turns into a one-in-a-thousand artifact diff.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "biochip/dtmb.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;

constexpr std::int32_t kHammerThreads = 8;

std::shared_ptr<const ChipDesign> shared_design() {
  return ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
}

/// The overlapping query set every hammer thread walks (rotated per thread
/// so cache misses and hits interleave differently on each).
std::vector<YieldQuery> overlapping_queries() {
  std::vector<YieldQuery> queries;
  for (const double p : {0.88, 0.92, 0.95, 0.99}) {
    for (const auto engine :
         {graph::MatchingEngine::kHopcroftKarp, graph::MatchingEngine::kAuto}) {
      YieldQuery query;
      query.fault = FaultModel::bernoulli(p);
      query.runs = 400;
      query.engine = engine;
      query.threads = 1;
      queries.push_back(query);
    }
  }
  return queries;
}

TEST(SessionStress, ManyThreadsOverlappingQueriesStayBitIdentical) {
  const auto design = shared_design();
  const std::vector<YieldQuery> queries = overlapping_queries();

  // Serial reference answers, from a session nothing else touches.
  Session reference(design);
  std::vector<YieldEstimate> expected;
  expected.reserve(queries.size());
  for (const YieldQuery& query : queries) expected.push_back(reference.run(query));

  Session session(design);
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          // Rotate the walk per thread so identical queries collide both
          // in-flight and via the cache.
          const std::size_t at = (i + static_cast<std::size_t>(t)) % queries.size();
          const YieldEstimate got = session.run(queries[at]);
          const YieldEstimate& want = expected[at];
          if (got.successes != want.successes || got.runs != want.runs ||
              got.value != want.value || got.ci95.lo != want.ci95.lo ||
              got.ci95.hi != want.ci95.hi) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.queries,
            static_cast<std::size_t>(kHammerThreads) * kRounds * queries.size());
  // Every distinct query computed exactly once, no matter the interleaving.
  EXPECT_EQ(stats.computed, queries.size());
}

TEST(SessionStress, SimultaneousIdenticalQueriesJoinOneComputation) {
  const auto design = shared_design();
  Session session(design);
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.93);
  query.runs = 20000;
  query.threads = 1;

  // All threads release at once onto the *same* expensive query: exactly
  // one computes, the rest must join the in-flight future and read the
  // same bits.
  std::atomic<int> ready{0};
  std::vector<YieldEstimate> results(
      static_cast<std::size_t>(kHammerThreads));
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kHammerThreads) std::this_thread::yield();
      results[static_cast<std::size_t>(t)] = session.run(query);
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 1; t < kHammerThreads; ++t) {
    const auto& first = results[0];
    const auto& other = results[static_cast<std::size_t>(t)];
    EXPECT_EQ(first.successes, other.successes) << "thread " << t;
    EXPECT_EQ(first.runs, other.runs);
    EXPECT_EQ(first.value, other.value);
  }
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.queries, static_cast<std::size_t>(kHammerThreads));
  EXPECT_EQ(stats.computed, 1u);
}

TEST(SessionStress, RegistryInstallSnapshotUninstallUnderLoad) {
  const auto design = shared_design();
  Session session(design);

  // Both registries are constructed before the workers start and destroyed
  // after they join: install/uninstall may flip mid-run (the TLS epoch
  // handshake re-resolves shards), but a shard's backing registry always
  // outlives its writers — the documented lifecycle.
  obs::Registry first;
  obs::Registry second;

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> issued{0};
  std::vector<std::thread> workers;
  workers.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        YieldQuery query;
        query.fault = FaultModel::bernoulli(0.94);
        query.runs = 64;
        // A fresh seed per round defeats the cache: every query computes,
        // so the instrumented hot paths keep writing counters.
        query.seed = 0x5EED0000ULL + static_cast<std::uint64_t>(t) * 1000 + round;
        query.threads = 1;
        session.run(query);
        issued.fetch_add(1, std::memory_order_relaxed);
        ++round;
      }
    });
  }

  // Flip the installed registry and snapshot it while the workers write.
  for (int flip = 0; flip < 25; ++flip) {
    obs::Registry& registry = (flip % 2 == 0) ? first : second;
    registry.install();
    std::this_thread::yield();
    const obs::Snapshot live = registry.snapshot();  // concurrent snapshot
    EXPECT_GE(live.counter(obs::Metric::kSessionQueries), 0);
    registry.uninstall();
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();

  // Quiescent now: both registries' totals must be internally consistent
  // and bounded by what the workers actually issued.
  const obs::Snapshot a = first.snapshot();
  const obs::Snapshot b = second.snapshot();
  const std::int64_t counted = a.counter(obs::Metric::kSessionQueries) +
                               b.counter(obs::Metric::kSessionQueries);
  EXPECT_LE(counted, issued.load());
  // Not computed <= counted: a query is counted at cache lookup but marked
  // computed at completion, so one that straddles an install is computed
  // in a registry that never counted it. Every computed query was issued.
  const std::int64_t computed = a.counter(obs::Metric::kSessionComputed) +
                                b.counter(obs::Metric::kSessionComputed);
  EXPECT_LE(computed, issued.load());

  // After the churn, a cleanly-bracketed run still attributes exactly.
  obs::Registry exact;
  exact.install();
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.9);
  query.runs = 32;
  query.seed = 0xA11C1EA4ULL;
  query.threads = 1;
  session.run(query);
  exact.uninstall();
  const obs::Snapshot snap = exact.snapshot();
  EXPECT_EQ(snap.counter(obs::Metric::kSessionQueries), 1);
  EXPECT_EQ(snap.counter(obs::Metric::kSimRuns), 32);
}

TEST(SessionStress, ConcurrentSpansProduceAValidTrace) {
  const auto design = shared_design();
  Session session(design);
  obs::TraceRecorder recorder(1u << 12);
  recorder.install();

  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        obs::ScopedSpan outer("stress.outer", "test");
        {
          obs::ScopedSpan inner("stress.inner", "test");
          if (inner.active() && i % 8 == 0) {
            inner.set_args(R"({"thread":)" + std::to_string(t) + "}");
          }
        }
        if (i % 10 == t % 10) {
          YieldQuery query;
          query.fault = FaultModel::bernoulli(0.92);
          query.runs = 64;
          query.seed = 0xCAFE + static_cast<std::uint64_t>(i);
          query.threads = 1;
          session.run(query);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  recorder.uninstall();

  std::ostringstream out;
  recorder.write(out);
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(out.str(), &error)) << error;
}

TEST(SessionStress, V2StreamsEightThreadsOverlappingQueriesStayBitIdentical) {
  // The v2 counter-stream contract (rng_version = v2) partitions runs into
  // per-thread ranges with no shared generator state at all — hammer it the
  // same way as v1: 8 threads, overlapping query sets, and every inner
  // kernel itself running multi-threaded so range splits interleave.
  const auto design = shared_design();

  std::vector<YieldQuery> queries;
  for (const double p : {0.90, 0.95, 0.99}) {
    for (const std::int32_t inner_threads : {1, 4}) {
      YieldQuery query;
      query.fault = FaultModel::bernoulli(p);
      query.runs = 600;
      query.rng_version = RngVersion::kV2;
      query.threads = inner_threads;
      queries.push_back(query);
    }
  }

  // Reference answers from a fresh session per query (threads = 1 and
  // threads = 4 share a query_key, so one shared session would serve the
  // second from cache and the pair check below would be vacuous). The
  // variants of each p must agree bit-for-bit when actually recomputed.
  std::vector<YieldEstimate> expected;
  expected.reserve(queries.size());
  for (const YieldQuery& query : queries) {
    Session reference(design);
    expected.push_back(reference.run(query));
  }
  for (std::size_t i = 0; i + 1 < queries.size(); i += 2) {
    EXPECT_EQ(expected[i].successes, expected[i + 1].successes);
    EXPECT_EQ(expected[i].value, expected[i + 1].value);
  }

  Session session(design);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kHammerThreads);
  for (int t = 0; t < kHammerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t at =
              (i + static_cast<std::size_t>(t)) % queries.size();
          const YieldEstimate got = session.run(queries[at]);
          const YieldEstimate& want = expected[at];
          if (got.successes != want.successes || got.runs != want.runs ||
              got.value != want.value || got.ci95.lo != want.ci95.lo ||
              got.ci95.hi != want.ci95.hi) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SessionStress, CampaignRunnerEightWorkersMatchesSerial) {
  // A fig9-smoke-shaped grid with deliberate duplicate sweep values, so the
  // 8-worker run exercises the session-cache dedupe path too.
  constexpr std::string_view kSpec =
      "name = stress_grid\n"
      "runs = 200\n"
      "seed = 0xD0E5A11\n"
      "design = dtmb2_6, dtmb3_6\n"
      "primaries = 60\n"
      "injector = bernoulli\n"
      "p = 0.88, 0.92, 0.92, 0.96, 0.99\n"
      "sink = csv\n";

  const auto run_at = [&](std::int32_t threads) {
    campaign::ParseResult parsed = campaign::parse_campaign_spec(kSpec);
    EXPECT_TRUE(parsed.ok()) << parsed.error_text();
    parsed.spec->threads = threads;
    campaign::CampaignRunner runner(std::move(*parsed.spec));
    return runner.run();
  };

  const std::vector<campaign::PointResult> serial = run_at(1);
  const std::vector<campaign::PointResult> parallel = run_at(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].estimate.successes, parallel[i].estimate.successes)
        << "point " << i;
    EXPECT_EQ(serial[i].estimate.value, parallel[i].estimate.value);
    EXPECT_EQ(serial[i].estimate.ci95.lo, parallel[i].estimate.ci95.lo);
    EXPECT_EQ(serial[i].estimate.ci95.hi, parallel[i].estimate.ci95.hi);
    EXPECT_EQ(serial[i].effective_yield, parallel[i].effective_yield);
  }
}

}  // namespace
}  // namespace dmfb::sim
