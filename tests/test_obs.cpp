// Contract tests for the obs layer: deterministic counter merges across
// thread counts, a free disabled default (zeroed snapshots, no-op probes),
// and Chrome-trace output that always validates with balanced "B"/"E"
// pairs — plus the strict JSON validator those trace checks ride on.
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "sim/assay_workload.hpp"
#include "sim/session.hpp"

namespace dmfb::obs {
namespace {

sim::YieldQuery bernoulli_query(std::int32_t threads) {
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.92);
  query.runs = 512;
  query.seed = 0xD0E5A11;
  query.threads = threads;
  return query;
}

/// Runs the same session query under a fresh registry at `threads` workers
/// and returns the merged snapshot.
Snapshot run_query_snapshot(std::int32_t threads) {
  Registry registry;
  registry.install();
  sim::Session session(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 9, 9));
  const sim::YieldEstimate estimate = session.run(bernoulli_query(threads));
  EXPECT_EQ(estimate.runs, 512);
  registry.uninstall();
  return registry.snapshot();
}

/// The same for an operational query on the multiplexed assay chip.
Snapshot run_operational_snapshot(std::int32_t threads) {
  Registry registry;
  registry.install();
  sim::Session session(sim::AssayWorkload::multiplexed());
  sim::YieldQuery query;
  query.fault = sim::FaultModel::fixed_count(25);
  query.workload = sim::Workload::kAssay;
  query.runs = 256;
  query.seed = 0xD0E5A11;
  query.threads = threads;
  query.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  const sim::OperationalEstimate estimate = session.run_operational(query);
  EXPECT_EQ(estimate.operational.runs, 256);
  registry.uninstall();
  return registry.snapshot();
}

void expect_stable_counters_equal(const Snapshot& a, const Snapshot& b) {
  for (std::size_t m = 0; m < kCounterCount; ++m) {
    const auto metric = static_cast<Metric>(m);
    if (!info(metric).stable) continue;
    EXPECT_EQ(a.counter(metric), b.counter(metric)) << info(metric).name;
  }
}

// ---------------------------------------------------------------- registry

TEST(ObsRegistryTest, DisabledByDefaultAndSnapshotsZero) {
  ASSERT_FALSE(enabled());
  // No registry installed: the probes are no-ops, not crashes.
  count(Metric::kSimRuns, 17);
  record_duration(Metric::kSessionQueryNs, 1234);
  { ScopedDuration timer(Metric::kSessionQueryNs); }

  Registry registry;  // never installed
  const Snapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), kCounterCount);
  ASSERT_EQ(snapshot.histograms.size(), kHistogramCount);
  for (const CounterSnapshot& counter : snapshot.counters) {
    EXPECT_EQ(counter.value, 0) << info(counter.metric).name;
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    EXPECT_EQ(histogram.count, 0) << info(histogram.metric).name;
    EXPECT_EQ(histogram.sum_ns, 0) << info(histogram.metric).name;
  }
  EXPECT_EQ(registry.shard_count(), 0u);
}

TEST(ObsRegistryTest, CountsLandOnlyWhileInstalled) {
  Registry registry;
  count(Metric::kSimRuns, 5);  // before install: dropped
  registry.install();
  EXPECT_TRUE(enabled());
  count(Metric::kSimRuns, 7);
  registry.uninstall();
  EXPECT_FALSE(enabled());
  count(Metric::kSimRuns, 11);  // after uninstall: dropped
  EXPECT_EQ(registry.snapshot().counter(Metric::kSimRuns), 7);
}

TEST(ObsRegistryTest, MergesShardsFromManyThreads) {
  Registry registry;
  registry.install();
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < 1000; ++i) count(Metric::kSimRuns);
      record_duration(Metric::kSessionQueryNs, 1000);
    });
  }
  for (auto& thread : pool) thread.join();
  registry.uninstall();
  const Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(Metric::kSimRuns), 4000);
  EXPECT_EQ(snapshot.histogram(Metric::kSessionQueryNs).count, 4);
  EXPECT_EQ(snapshot.histogram(Metric::kSessionQueryNs).sum_ns, 4000);
  EXPECT_EQ(registry.shard_count(), 4u);
}

TEST(ObsRegistryTest, HistogramStatisticsAreExactForCountSumMinMax) {
  Registry registry;
  registry.install();
  for (const std::int64_t ns : {700, 100, 65000, 100, 3000}) {
    record_duration(Metric::kReconfigPlanNs, ns);
  }
  registry.uninstall();
  const Snapshot snapshot = registry.snapshot();  // outlives the reference
  const HistogramSnapshot& histogram =
      snapshot.histogram(Metric::kReconfigPlanNs);
  EXPECT_EQ(histogram.count, 5);
  EXPECT_EQ(histogram.sum_ns, 68900);
  EXPECT_EQ(histogram.min_ns, 100);
  EXPECT_EQ(histogram.max_ns, 65000);
  EXPECT_EQ(histogram.mean_ns(), 13780);
  // Bucket-resolution quantiles: clamped into [min, max], monotone in q.
  EXPECT_GE(histogram.quantile_ns(0.0), 100);
  EXPECT_LE(histogram.quantile_ns(0.99), 65000);
  EXPECT_LE(histogram.quantile_ns(0.50), histogram.quantile_ns(0.95));
}

// The tentpole determinism contract: every stable counter of the same
// session query is bit-identical whether the Monte-Carlo loop ran on one
// worker or four. (Unstable counters — the in-flight joins, worker splits,
// wall-time histograms — are exactly the ones excluded.)
TEST(ObsRegistryTest, StableCountersIdenticalAtOneAndFourThreads) {
  const Snapshot t1 = run_query_snapshot(1);
  const Snapshot t4 = run_query_snapshot(4);
  expect_stable_counters_equal(t1, t4);
  // And they are not trivially zero: the query really was instrumented.
  EXPECT_EQ(t1.counter(Metric::kSessionQueries), 1);
  EXPECT_EQ(t1.counter(Metric::kSessionComputed), 1);
  EXPECT_EQ(t1.counter(Metric::kSimRuns), 512);
  EXPECT_EQ(t1.counter(Metric::kInjectRuns), 512);
  // The v1 Bernoulli query runs its lanes in lock-step where the CPU has a
  // kernel; the injection counters stay those of one scalar run each.
  const std::int64_t cells =
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 9, 9).cell_count();
  EXPECT_EQ(t1.counter(Metric::kInjectCellTrials), 512 * cells);
  EXPECT_EQ(t1.counter(Metric::kInjectClassificationDraws),
            t1.counter(Metric::kInjectCellsFaulted));
  EXPECT_GT(t1.counter(Metric::kInjectCellsFaulted), 0);

  // An operational query adds the route counters: every transport is
  // counted, and the geodesic table settles a share of them.
  const Snapshot op1 = run_operational_snapshot(1);
  const Snapshot op4 = run_operational_snapshot(4);
  expect_stable_counters_equal(op1, op4);
  EXPECT_EQ(op1.counter(Metric::kSimRuns), 256);
  EXPECT_GT(op1.counter(Metric::kRouteCertified), 0);
  EXPECT_LT(op1.counter(Metric::kRouteCertified),
            op1.counter(Metric::kRouteTransports));
  EXPECT_EQ(t1.counter(Metric::kRouteTransports), 0);
}

// One duration sample per operational run and step. The workload is built
// inside the installed registry, and the healthy baseline
// AssayWorkload::make evaluates records no sample of its own.
TEST(ObsRegistryTest, OperationalStepDurationsCountOneSamplePerRun) {
  const Snapshot snapshot = run_operational_snapshot(1);
  const std::int64_t runs = snapshot.counter(Metric::kSimRuns);
  ASSERT_EQ(runs, 256);
  for (const Metric metric : {Metric::kReconfigPlanNs,
                              Metric::kAssayScheduleNs, Metric::kRouteNs}) {
    EXPECT_EQ(snapshot.histogram(metric).count, runs) << info(metric).name;
  }
}

TEST(ObsRegistryTest, SessionCacheHitCountsSecondIdenticalQuery) {
  Registry registry;
  registry.install();
  sim::Session session(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 9, 9));
  (void)session.run(bernoulli_query(1));
  (void)session.run(bernoulli_query(1));
  registry.uninstall();
  const Snapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter(Metric::kSessionQueries), 2);
  EXPECT_EQ(snapshot.counter(Metric::kSessionComputed), 1);
  EXPECT_EQ(snapshot.counter(Metric::kSessionCacheHits), 1);
  // Only the miss executed, so runs were simulated exactly once.
  EXPECT_EQ(snapshot.counter(Metric::kSimRuns), 512);
}

TEST(ObsRegistryTest, CatalogNamesAreUniqueAndOrdered) {
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const MetricInfo& meta = info(static_cast<Metric>(m));
    EXPECT_FALSE(meta.name.empty());
    EXPECT_EQ(meta.kind, m < kFirstHistogram
                             ? MetricKind::kCounter
                             : MetricKind::kDurationHistogram);
    for (std::size_t other = m + 1; other < kMetricCount; ++other) {
      EXPECT_NE(meta.name, info(static_cast<Metric>(other)).name);
    }
  }
}

// -------------------------------------------------------------------- sink

TEST(ObsSinkTest, JsonlLinesAreValidJsonInCatalogOrder) {
  Registry registry;
  registry.install();
  count(Metric::kSimRuns, 42);
  record_duration(Metric::kRouteNs, 1500);
  registry.uninstall();

  const std::string jsonl = to_jsonl(registry.snapshot());
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t line_count = 0;
  std::string error;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(validate_json(line, &error)) << line << ": " << error;
    ++line_count;
  }
  EXPECT_EQ(line_count, kMetricCount);
  EXPECT_NE(jsonl.find("{\"metric\":\"sim.runs\",\"kind\":\"counter\","
                       "\"stable\":true,\"value\":42}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"metric\":\"fluidics.route_ns\""),
            std::string::npos);
}

TEST(ObsSinkTest, MarkdownSummaryListsEveryMetric) {
  Registry registry;
  const std::string markdown = to_markdown(registry.snapshot());
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    EXPECT_NE(markdown.find(std::string(info(static_cast<Metric>(m)).name)),
              std::string::npos);
  }
  EXPECT_NE(markdown.find("## Counters"), std::string::npos);
  EXPECT_NE(markdown.find("## Durations"), std::string::npos);
}

TEST(ObsSinkTest, MarkdownPathDerivesFromJsonlPath) {
  EXPECT_EQ(MetricsSink("out/metrics.jsonl").markdown_path(),
            "out/metrics.md");
  EXPECT_EQ(MetricsSink("metrics.dat").markdown_path(), "metrics.dat.md");
}

// ------------------------------------------------------------------- trace

TEST(ObsTraceTest, SpansNestAndValidate) {
  TraceRecorder recorder;
  recorder.install();
  {
    ScopedSpan outer("campaign.point", "campaign");
    EXPECT_TRUE(outer.active());
    outer.set_args("{\"design\":\"dtmb2_6\"}");
    { ScopedSpan inner("session.query", "sim"); }
    { ScopedSpan inner("session.query", "sim"); }
  }
  std::thread worker([] { ScopedSpan span("session.query", "sim"); });
  worker.join();
  recorder.uninstall();

  std::ostringstream out;
  recorder.write(out);
  std::string error;
  EXPECT_TRUE(validate_trace_json(out.str(), &error)) << error;
  EXPECT_TRUE(validate_json(out.str(), &error)) << error;
  // Two buffers (main + worker), four B/E pairs, args attached to the B.
  EXPECT_NE(out.str().find("dmfb-thread-1"), std::string::npos);
  EXPECT_NE(out.str().find("\"args\":{\"design\":\"dtmb2_6\"}"),
            std::string::npos);
  EXPECT_EQ(recorder.dropped_events(), 0);
}

TEST(ObsTraceTest, SpansAreInactiveWhenNoRecorderInstalled) {
  ScopedSpan span("session.query", "sim");
  EXPECT_FALSE(span.active());
  span.set_args("{}");  // no-op, not a crash
}

TEST(ObsTraceTest, FullBufferDropsWholeSpansAndStillBalances) {
  TraceRecorder recorder(/*max_events_per_thread=*/4);
  recorder.install();
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("session.query", "sim");
    EXPECT_EQ(span.active(), i < 2);  // 2 events per span, cap 4
  }
  recorder.uninstall();
  std::ostringstream out;
  recorder.write(out);
  std::string error;
  EXPECT_TRUE(validate_trace_json(out.str(), &error)) << error;
  EXPECT_EQ(recorder.dropped_events(), 6);
}

TEST(ObsTraceTest, EmptyRecorderStillWritesAValidDocument) {
  TraceRecorder recorder;
  std::ostringstream out;
  recorder.write(out);
  std::string error;
  EXPECT_TRUE(validate_trace_json(out.str(), &error)) << error;
}

// --------------------------------------------------------- json validation

TEST(ObsJsonValidatorTest, AcceptsStrictJson) {
  std::string error;
  EXPECT_TRUE(validate_json(R"({"a":[1,2.5,-3e+2],"b":"x\nA","c":null,
                               "d":true,"e":{},"f":[]})",
                            &error))
      << error;
  EXPECT_TRUE(validate_json("[]", &error)) << error;
  EXPECT_TRUE(validate_json("42", &error)) << error;
}

TEST(ObsJsonValidatorTest, RejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(validate_json("{\"a\":}", &error));
  EXPECT_FALSE(validate_json("{'a':1}", &error));
  EXPECT_FALSE(validate_json("[1,]", &error));
  EXPECT_FALSE(validate_json("[1] trailing", &error));
  EXPECT_FALSE(validate_json("{\"a\":01}", &error));
  EXPECT_FALSE(validate_json("\"unterminated", &error));
  EXPECT_FALSE(validate_json("{\"a\":1", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ObsJsonValidatorTest, TraceShapeChecksNesting) {
  std::string error;
  // Balanced, properly nested per tid.
  EXPECT_TRUE(validate_trace_json(
      R"({"traceEvents":[
            {"name":"a","ph":"B","tid":0,"ts":1},
            {"name":"b","ph":"B","tid":0,"ts":2},
            {"ph":"E","tid":0,"ts":3},
            {"ph":"E","tid":0,"ts":4},
            {"name":"m","ph":"M","tid":9}]})",
      &error))
      << error;
  // An E with no open B on its tid.
  EXPECT_FALSE(validate_trace_json(
      R"({"traceEvents":[{"ph":"E","tid":0,"ts":1}]})", &error));
  // A B left open at end of stream.
  EXPECT_FALSE(validate_trace_json(
      R"({"traceEvents":[{"name":"a","ph":"B","tid":0,"ts":1}]})", &error));
  // Balance is per tid, not global.
  EXPECT_FALSE(validate_trace_json(
      R"({"traceEvents":[
            {"name":"a","ph":"B","tid":0,"ts":1},
            {"ph":"E","tid":1,"ts":2}]})",
      &error));
  // Trace mode demands the traceEvents array on a top-level object.
  EXPECT_FALSE(validate_trace_json(R"({"events":[]})", &error));
  EXPECT_FALSE(validate_trace_json(R"([])", &error));
  EXPECT_FALSE(validate_trace_json(R"({"traceEvents":{}})", &error));
  EXPECT_FALSE(validate_trace_json(R"({"traceEvents":[1]})", &error));
}

}  // namespace
}  // namespace dmfb::obs
