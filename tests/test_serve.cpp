// Tests for the serving layer: the bounded MPMC queue's delivery and
// shutdown contract, the durable ResultStore (roundtrip, torn/corrupt/
// colliding records degrade to misses, atomic-rename hygiene), the strict
// jsonl wire protocol, the Server's submission-order streaming and
// duplicate-query accounting, campaign checkpoint/resume byte-identity
// against a cold run, and the serving-blocker bugfixes that rode along
// (sink flush reporting, bounded session caches, poisoned-entry retry).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "biochip/dtmb.hpp"
#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "common/contracts.hpp"
#include "serve/mpmc_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "sim/assay_workload.hpp"
#include "sim/session.hpp"

namespace dmfb::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the system temp root, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("dmfb_serve_test_" + tag + "_" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

// ------------------------------------------------------------- MpmcQueue

TEST(MpmcQueue, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(MpmcQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(MpmcQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(MpmcQueue<int>(256).capacity(), 256u);
  EXPECT_THROW(MpmcQueue<int>(0), ContractViolation);
}

TEST(MpmcQueue, SingleThreadFifoRoundtrip) {
  MpmcQueue<int> queue(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.push(i));
  for (int i = 0; i < 8; ++i) {
    const std::optional<int> value = queue.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
}

TEST(MpmcQueue, CloseRefusesNewWorkButDeliversAcceptedItems) {
  MpmcQueue<int> queue(8);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  queue.close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.push(3));
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.pop(), std::nullopt);  // stays drained
  queue.close();                         // idempotent
}

TEST(MpmcQueue, CloseWakesBlockedConsumers) {
  MpmcQueue<int> queue(4);
  std::atomic<int> drained{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < 3; ++t) {
    consumers.emplace_back([&] {
      while (queue.pop()) {
      }
      drained.fetch_add(1);
    });
  }
  queue.close();
  for (std::thread& consumer : consumers) consumer.join();
  EXPECT_EQ(drained.load(), 3);
}

TEST(MpmcQueue, FullQueueBackpressuresUntilConsumed) {
  MpmcQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(3));  // blocks until a pop frees a slot
    third_pushed.store(true);
  });
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::optional<int>(3));
}

// ----------------------------------------------------------- ResultStore

TEST(ResultStore, RoundtripsAndCountsHitsMissesWrites) {
  TempDir dir("roundtrip");
  ResultStore store(dir.path());
  EXPECT_EQ(store.load("k1"), std::nullopt);  // cold miss
  store.store("k1", "payload-one");
  store.store("k2", "payload-two");
  EXPECT_EQ(store.load("k1"), std::optional<std::string>("payload-one"));
  EXPECT_EQ(store.load("k2"), std::optional<std::string>("payload-two"));
  store.flush();
  const ResultStore::Stats stats = store.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.writes, 2);
  EXPECT_EQ(stats.corrupt_dropped, 0);

  // A second store over the same root sees the first one's records.
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.load("k1"), std::optional<std::string>("payload-one"));
}

TEST(ResultStore, OverwriteReplacesThePayload) {
  TempDir dir("overwrite");
  ResultStore store(dir.path());
  store.store("k", "old");
  store.store("k", "new");
  EXPECT_EQ(store.load("k"), std::optional<std::string>("new"));
}

TEST(ResultStore, TornRecordIsACountedCorruptMiss) {
  TempDir dir("torn");
  ResultStore store(dir.path());
  store.store("k", "payload");
  store.flush();
  // Truncate mid-payload: fewer lines than the format requires.
  const fs::path record = store.path_of("k");
  {
    std::ifstream in(record, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(record, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_EQ(store.stats().corrupt_dropped, 1);
}

TEST(ResultStore, ChecksumMismatchIsACountedCorruptMiss) {
  TempDir dir("crc");
  ResultStore store(dir.path());
  store.store("k", "payload");
  store.flush();
  const fs::path record = store.path_of("k");
  {
    std::ofstream out(record, std::ios::binary | std::ios::trunc);
    out << "dmfb-store 1\nk\npayload-flipped\ncrc 0000000000000000\n";
  }
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_EQ(store.stats().corrupt_dropped, 1);
}

TEST(ResultStore, ForeignSchemaIsAPlainMissNotCorruption) {
  TempDir dir("schema");
  ResultStore store(dir.path());
  store.store("k", "payload");
  store.flush();
  const fs::path record = store.path_of("k");
  {
    std::ofstream out(record, std::ios::binary | std::ios::trunc);
    out << "dmfb-store 2\nk\nfuture-payload\ncrc 0123456789abcdef\n";
  }
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_EQ(store.stats().corrupt_dropped, 0);
}

TEST(ResultStore, HashCollisionDegradesToAMissNeverAWrongAnswer) {
  TempDir dir("collision");
  ResultStore store(dir.path());
  // Forge an intact record for a *different* key at k's address — exactly
  // what a 128-bit hash collision would leave on disk.
  store.store("other-key", "other-payload");
  store.flush();
  const fs::path forged = store.path_of("other-key");
  const fs::path target = store.path_of("k");
  fs::create_directories(target.parent_path());
  fs::rename(forged, target);
  EXPECT_EQ(store.load("k"), std::nullopt);
  EXPECT_EQ(store.stats().corrupt_dropped, 0);  // intact, just not ours
}

TEST(ResultStore, StoreLeavesNoTempFilesBehind) {
  TempDir dir("hygiene");
  ResultStore store(dir.path());
  for (int i = 0; i < 16; ++i) {
    store.store("key-" + std::to_string(i), "payload");
  }
  store.flush();
  for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
    if (entry.is_regular_file()) {
      EXPECT_EQ(entry.path().extension(), ".rec") << entry.path();
    }
  }
}

TEST(ResultStore, OpenSweepsTempsOfDeadWritersOnly) {
  // A kill -9 between a store()'s temp write and its rename leaves the
  // temp behind. Reopening removes a dead writer's temp (no process can
  // have pid 2^31 - 1, the largest pid_t), keeps this live process's own
  // temp, and never touches a record.
  TempDir dir("sweep");
  fs::path record;
  {
    ResultStore store(dir.path());
    store.store("kept", "payload");
    record = store.path_of("kept");
  }
  const auto temp_of = [&](long long pid) {
    fs::path temp = record;
    temp += ".tmp." + std::to_string(pid) + ".0";
    std::ofstream(temp) << "torn";
    return temp;
  };
  const fs::path dead = temp_of(2147483647);
  const fs::path own = temp_of(::getpid());
  ResultStore reopened(dir.path());
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(own));
  EXPECT_EQ(reopened.load("kept"), "payload");
}

TEST(ResultStore, RejectsMultilineKeysAndPayloads) {
  TempDir dir("multiline");
  ResultStore store(dir.path());
  EXPECT_THROW(store.store("bad\nkey", "payload"), ContractViolation);
  EXPECT_THROW(store.store("key", "bad\npayload"), ContractViolation);
}

TEST(ResultStore, LoadHitsAStoredRecordBeforeFlush) {
  // store() returns before the writer renames; the record is readable at
  // once, and a later store() of the key wins on disk too.
  TempDir dir("pending");
  ResultStore store(dir.path());
  store.store("k", "old");
  EXPECT_EQ(store.load("k"), std::optional<std::string>("old"));
  store.store("k", "new");
  EXPECT_EQ(store.load("k"), std::optional<std::string>("new"));
  EXPECT_EQ(store.stats().hits, 2);
  store.flush();
  ResultStore reopened(dir.path());
  EXPECT_EQ(reopened.load("k"), std::optional<std::string>("new"));
}

TEST(ResultStore, DestructionWritesEveryQueuedRecord) {
  TempDir dir("drain");
  constexpr int kRecords = 1000;
  {
    ResultStore store(dir.path());
    for (int i = 0; i < kRecords; ++i) {
      store.store("key-" + std::to_string(i), "payload-" + std::to_string(i));
    }
  }
  ResultStore reopened(dir.path());
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(reopened.load("key-" + std::to_string(i)),
              std::optional<std::string>("payload-" + std::to_string(i)));
  }
  EXPECT_EQ(reopened.stats().hits, kRecords);
  int records = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
    if (!entry.is_regular_file()) continue;
    EXPECT_EQ(entry.path().extension(), ".rec") << entry.path();
    ++records;
  }
  EXPECT_EQ(records, kRecords);
}

TEST(ResultStore, RemovedRootLosesWritesWithoutThrowing) {
  // The writer never recreates a root removed under it: the records are
  // lost, store() and flush() return, and no rename is counted.
  TempDir dir("removed");
  const fs::path root = dir.path() / "store";
  ResultStore store(root);
  store.store("before", "payload");
  store.flush();
  ASSERT_EQ(store.stats().writes, 1);
  fs::remove_all(root);
  EXPECT_NO_THROW(store.store("after", "payload"));
  store.flush();
  EXPECT_EQ(store.stats().writes, 1);
  EXPECT_FALSE(fs::exists(root));
  EXPECT_EQ(store.load("after"), std::nullopt);
}

// ------------------------------------------------------------- store_key

TEST(StoreKey, DistinguishesDesignsWithEqualCellCounts) {
  // Same dimensions, different structure: the fingerprint must separate
  // them, or one on-disk store would alias two experiments.
  const auto design_a = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6,
                                              30));
  const auto design_b = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6B,
                                              30));
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.9);
  EXPECT_NE(sim::store_key(query, *design_a), sim::store_key(query, *design_b));
  // Same design content → same key (cross-process stability).
  const auto design_a2 = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6,
                                              30));
  EXPECT_EQ(sim::store_key(query, *design_a), sim::store_key(query, *design_a2));
}

TEST(StoreKey, QueryFieldInjectionCannotForgeACollision) {
  // query_key renders every field as decimal integers joined by '|'; no
  // value can smuggle a separator. Adversarial pairs that would collide
  // under naive string concatenation must stay distinct.
  const auto design = sim::ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb1_6,
                                              30));
  sim::YieldQuery a;
  a.fault = sim::FaultModel::fixed_count(12);
  sim::YieldQuery b;
  b.fault = sim::FaultModel::fixed_count(1);
  b.runs = 210000;  // "…|1|2…" vs "…|12|…" style smearing
  EXPECT_NE(sim::store_key(a, *design), sim::store_key(b, *design));

  // Mixture nesting is bracketed+terminated: one two-part mixture never
  // collides with a different split of the same flattened digits.
  sim::YieldQuery m1;
  m1.fault = sim::FaultModel::mixture(
      {sim::FaultModel::bernoulli(0.5), sim::FaultModel::bernoulli(0.25)});
  sim::YieldQuery m2;
  m2.fault = sim::FaultModel::mixture({sim::FaultModel::bernoulli(0.25),
                                       sim::FaultModel::bernoulli(0.5)});
  EXPECT_NE(sim::store_key(m1, *design), sim::store_key(m2, *design));
}

TEST(StoreKey, PreviousSchemaRecordIsAMissAndRecomputes) {
  // Schema "1|" records predate the CSR-only planner; an operational
  // (assay) record stored under the old key must never answer a query,
  // even when its payload decodes.
  const auto workload = sim::AssayWorkload::multiplexed();
  sim::YieldQuery query;
  query.fault = sim::FaultModel::fixed_count(20);
  query.workload = sim::Workload::kAssay;
  query.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  query.runs = 16;
  query.threads = 1;
  const std::string key = sim::store_key(query, *workload);
  ASSERT_EQ(key.substr(0, 2), "2|");
  // Schema 1 keyed assay queries by the design alone.
  const std::string old_key =
      "1" + sim::store_key(query, workload->design()).substr(1);

  TempDir dir("old_schema");
  auto store = std::make_shared<ResultStore>(dir.path());
  sim::OperationalEstimate forged;
  forged.structural = sim::YieldEstimate::from_counts(0, query.runs);
  forged.operational = sim::YieldEstimate::from_counts(0, query.runs);
  forged.mean_slowdown = forged.worst_slowdown = 9.0;
  store->store(old_key, sim::encode_operational(forged));
  ASSERT_TRUE(store->load(old_key).has_value());

  sim::Session session(workload);
  session.attach_result_cache(store);
  const sim::OperationalEstimate served = session.run_operational(query);
  EXPECT_EQ(session.stats().store_hits, 0u);
  EXPECT_EQ(session.stats().computed, 1u);

  const sim::OperationalEstimate cold =
      sim::Session(workload).run_operational(query);
  EXPECT_EQ(sim::encode_operational(served), sim::encode_operational(cold));
  EXPECT_NE(sim::encode_operational(served), sim::encode_operational(forged));
  // The recomputed estimate is written back under the current key.
  EXPECT_EQ(store->load(key), sim::encode_operational(cold));
}

TEST(StoreKey, AssayRecordsDoNotAliasAcrossWorkloadsOnOneDesign) {
  // Two workloads on one design: an assay answer depends on the graph, so
  // the second workload must not be served the first one's record.
  const auto multiplexed = sim::AssayWorkload::multiplexed();
  const auto glucose = sim::AssayWorkload::make(
      multiplexed->design_ptr(),
      assay::SequencingGraph::single_assay("glucose", 5, 30),
      {multiplexed->modules().begin(), multiplexed->modules().end()});
  sim::YieldQuery query;
  query.fault = sim::FaultModel::fixed_count(25);
  query.workload = sim::Workload::kAssay;
  query.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  query.runs = 500;
  query.threads = 1;

  TempDir dir("workload_alias");
  auto cache = std::make_shared<ResultStore>(dir.path());
  sim::Session first(multiplexed);
  first.attach_result_cache(cache);
  (void)first.run_operational(query);
  sim::Session second(glucose);
  second.attach_result_cache(cache);
  const sim::OperationalEstimate served = second.run_operational(query);
  EXPECT_EQ(second.stats().store_hits, 0u);

  const sim::OperationalEstimate fresh =
      sim::Session(glucose).run_operational(query);
  EXPECT_EQ(sim::encode_operational(served), sim::encode_operational(fresh));
  EXPECT_NE(sim::store_key(query, *multiplexed),
            sim::store_key(query, *glucose));

  // Structural keys ignore the workload, and their bytes are pinned: warm
  // structural records stay valid.
  query.workload = sim::Workload::kStructural;
  EXPECT_EQ(sim::store_key(query, *glucose),
            sim::store_key(query, multiplexed->design()));
  sim::YieldQuery structural;
  structural.fault = sim::FaultModel::bernoulli(0.9);
  EXPECT_EQ(sim::store_key(structural, *glucose),
            "2|10980325471451240772|0|4606281698874543309|1|"
            "4606281698874543309|4599075939470750515|10000|219044369|0|0|0|0|"
            "0|1");
}

// --------------------------------------------------------------- protocol

TEST(Protocol, ParsesAMinimalRequestWithDefaults) {
  const ParsedRequest parsed = parse_request(
      R"({"design": "dtmb2_6", "injector": "bernoulli", "param": 0.9})", 7);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.request->id, "7");  // line number stands in
  EXPECT_EQ(parsed.request->design, campaign::Design::kDtmb2_6);
  EXPECT_EQ(parsed.request->injector, campaign::InjectorKind::kBernoulli);
  EXPECT_DOUBLE_EQ(parsed.request->param, 0.9);
  EXPECT_EQ(parsed.request->runs, 10000);
  EXPECT_EQ(parsed.request->seed, sim::kDefaultSeed);
  EXPECT_EQ(parsed.request->workload, campaign::WorkloadKind::kStructural);
}

TEST(Protocol, EchoesNumericAndStringIdsVerbatim) {
  const ParsedRequest numeric = parse_request(
      R"({"id": 42, "design": "dtmb1_6", "injector": "bernoulli", "param": 0.5})",
      1);
  ASSERT_TRUE(numeric.ok()) << numeric.error;
  EXPECT_EQ(numeric.request->id, "42");
  const ParsedRequest text = parse_request(
      R"({"id": "exp-a", "design": "dtmb1_6", "injector": "bernoulli", "param": 0.5})",
      1);
  ASSERT_TRUE(text.ok()) << text.error;
  EXPECT_EQ(text.request->id, "\"exp-a\"");
}

TEST(Protocol, RejectsMalformedAndUnknownInput) {
  const char* kBad[] = {
      "not json",
      R"({"injector": "bernoulli", "param": 0.5})",           // missing design
      R"({"design": "dtmb1_6", "param": 0.5})",               // missing injector
      R"({"design": "dtmb1_6", "injector": "bernoulli"})",    // missing param
      R"({"design": "nope", "injector": "bernoulli", "param": 0.5})",
      R"({"design": "dtmb1_6", "injector": "mixture", "param": 0.5})",
      R"({"design": "dtmb1_6", "injector": "bernoulli", "param": 0.5, "x": 1})",
      R"({"design": "dtmb1_6", "injector": "bernoulli", "param": 0.5, "param": 0.6})",
      R"({"design": "dtmb1_6", "injector": "bernoulli", "param": {"p": 1}})",
      R"({"design": "dtmb1_6", "injector": "fixed_count", "param": 2.5})",
      R"({"design": "dtmb1_6", "injector": "bernoulli", "param": 0.5, "workload": "assay"})",
      R"({"design": "dtmb1_6", "injector": "bernoulli", "param": 0.5)",
  };
  for (const char* line : kBad) {
    const ParsedRequest parsed = parse_request(line, 1);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_FALSE(parsed.error.empty()) << line;
  }
}

TEST(Protocol, AcceptsOnlyStrictJsonNumbersAndStrings) {
  // Every numeric key reads the JSON number grammar, and the id is echoed
  // verbatim, so a token JSON rejects must never be accepted.
  const auto with_id = [](std::string_view id) {
    return "{\"id\": " + std::string(id) +
           ", \"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
           "\"param\": 0.5}";
  };
  for (const char* id : {"0", "-0", "42", "-7", "1.5", "1.5e-3", "2E+2",
                         "0.25e10"}) {
    const ParsedRequest parsed = parse_request(with_id(id), 1);
    ASSERT_TRUE(parsed.ok()) << id << ": " << parsed.error;
    EXPECT_EQ(parsed.request->id, id);
  }
  for (const char* id : {"+1", ".5", "007", "01.5", "1.", "-", "1e", "1e+",
                         "1.2.3", "--1", "1e5e5", "0x10"}) {
    EXPECT_FALSE(parse_request(with_id(id), 1).ok()) << id;
  }
  for (const char* param : {"+0.5", ".5", "00.5", "0.5."}) {
    const std::string line =
        std::string(R"({"design": "dtmb1_6", "injector": "bernoulli", )") +
        "\"param\": " + param + "}";
    EXPECT_FALSE(parse_request(line, 1).ok()) << param;
  }
  // Raw control characters (here a tab) inside strings are rejected, in a
  // key, an id and a token value alike; between tokens they are whitespace.
  for (const char* line :
       {"{\"id\": \"a\tb\", \"design\": \"dtmb1_6\", "
        "\"injector\": \"bernoulli\", \"param\": 0.5}",
        "{\"design\": \"dtm\tb1_6\", \"injector\": \"bernoulli\", "
        "\"param\": 0.5}",
        "{\"des\x01ign\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
        "\"param\": 0.5}"}) {
    const ParsedRequest parsed = parse_request(line, 1);
    EXPECT_FALSE(parsed.ok()) << line;
    for (const char ch : parsed.error) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << parsed.error;
    }
  }
  EXPECT_TRUE(parse_request("{\"design\":\t\"dtmb1_6\",\t\"injector\": "
                            "\"bernoulli\", \"param\": 0.5}",
                            1)
                  .ok());
}

TEST(Protocol, EngineAcceptsHopcroftKarpAndAutoOnly) {
  const auto with_engine = [](std::string_view engine) {
    return R"({"design": "dtmb2_6", "injector": "bernoulli", "param": 0.9, )"
           R"("engine": ")" +
           std::string(engine) + "\"}";
  };
  const ParsedRequest hk = parse_request(with_engine("hopcroft_karp"), 1);
  const ParsedRequest automatic = parse_request(with_engine("auto"), 1);
  ASSERT_TRUE(hk.ok()) << hk.error;
  ASSERT_TRUE(automatic.ok()) << automatic.error;
  // Both name Hopcroft-Karp, so they ask the same question under one key.
  EXPECT_EQ(query_of(*automatic.request).engine,
            graph::MatchingEngine::kHopcroftKarp);
  EXPECT_EQ(sim::query_key(query_of(*automatic.request)),
            sim::query_key(query_of(*hk.request)));
  for (const std::string_view removed : {"kuhn", "dinic", "push_relabel"}) {
    const ParsedRequest parsed = parse_request(with_engine(removed), 1);
    EXPECT_FALSE(parsed.ok()) << removed;
    EXPECT_EQ(parsed.error, "unknown engine '" + std::string(removed) + "'");
  }
}

TEST(Protocol, PrimariesMustLieInTheSpecRange) {
  const auto with_primaries = [](std::string_view primaries) {
    return R"({"design": "dtmb2_6", "injector": "bernoulli", "param": 0.9, )"
           R"("primaries": )" +
           std::string(primaries) + "}";
  };
  for (const std::string_view bad : {"0", "1000001", "2147483647", "-1"}) {
    const ParsedRequest parsed = parse_request(with_primaries(bad), 1);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error, "invalid value for \"primaries\"") << bad;
  }
  const ParsedRequest low = parse_request(with_primaries("1"), 1);
  ASSERT_TRUE(low.ok()) << low.error;
  EXPECT_EQ(low.request->min_primaries, 1);
  const ParsedRequest high = parse_request(with_primaries("1000000"), 1);
  ASSERT_TRUE(high.ok()) << high.error;
  EXPECT_EQ(high.request->min_primaries, campaign::kMaxPrimaries);
}

TEST(Protocol, RunsMustLieInTheSpecRange) {
  const auto with_runs = [](std::string_view runs) {
    return R"({"design": "dtmb2_6", "injector": "bernoulli", "param": 0.9, )"
           R"("runs": )" +
           std::string(runs) + "}";
  };
  for (const std::string_view bad :
       {"0", "-1", "100000001", "2000000000", "2147483647"}) {
    const ParsedRequest parsed = parse_request(with_runs(bad), 1);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error, "invalid value for \"runs\"") << bad;
  }
  const ParsedRequest low = parse_request(with_runs("1"), 1);
  ASSERT_TRUE(low.ok()) << low.error;
  EXPECT_EQ(low.request->runs, 1);
  const ParsedRequest high = parse_request(with_runs("100000000"), 1);
  ASSERT_TRUE(high.ok()) << high.error;
  EXPECT_EQ(high.request->runs, campaign::kMaxRuns);
}

TEST(Protocol, JsonDoubleRoundTripsExactly) {
  for (const double value :
       {0.0, 1.0, 0.1, 1.0 / 3.0, 0.9999999999999999, 1e-300, 12345.6789}) {
    EXPECT_EQ(std::stod(json_double(value)), value) << json_double(value);
  }
}

TEST(Protocol, ResponseFormattingIsStableBytes) {
  ServeRequest request;
  request.id = "3";
  const sim::YieldEstimate estimate =
      sim::YieldEstimate::from_counts(95, 100);
  const std::string line = format_response(request, estimate);
  EXPECT_EQ(line, format_response(request, estimate));  // deterministic
  EXPECT_EQ(line.rfind("{\"id\": 3, \"yield\": 0.95, ", 0), 0u) << line;
  EXPECT_EQ(format_error("\"x\"", "boom"), "{\"id\": \"x\", \"error\": \"boom\"}");
}

// ----------------------------------------------------------------- server

std::string serve_batch(Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  server.serve(in, out);
  return out.str();
}

TEST(Server, AnswersInSubmissionOrderAtAnyThreadCount) {
  // Mixed cheap/expensive queries so completion order differs from
  // submission order with real concurrency.
  std::string batch;
  for (int i = 1; i <= 12; ++i) {
    const int runs = (i % 3 == 0) ? 4000 : 50;
    batch += "{\"id\": " + std::to_string(i) +
             ", \"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
             "\"param\": 0.9, \"runs\": " +
             std::to_string(runs) + ", \"seed\": " + std::to_string(i) +
             "}\n";
  }
  ServerOptions serial_options;
  serial_options.threads = 1;
  Server serial(serial_options);
  ServerOptions parallel_options;
  parallel_options.threads = 4;
  Server parallel(parallel_options);
  const std::string serial_out = serve_batch(serial, batch);
  const std::string parallel_out = serve_batch(parallel, batch);
  EXPECT_EQ(serial_out, parallel_out);  // order AND bytes
  // Response i leads with its id, in order.
  std::istringstream lines(parallel_out);
  std::string line;
  int expected = 1;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"id\": " + std::to_string(expected) + ",", 0), 0u)
        << line;
    ++expected;
  }
  EXPECT_EQ(expected, 13);
}

TEST(Server, ErrorLinesStayInStreamAndDaemonKeepsServing) {
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  const std::string out = serve_batch(
      server,
      "{\"id\": 1, \"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
      "\"param\": 0.9, \"runs\": 60}\n"
      "this is not json\n"
      "\n"  // blank lines are skipped, not answered
      "{\"id\": 4, \"design\": \"dtmb1_6\", \"injector\": \"fixed_count\", "
      "\"param\": 99999, \"runs\": 60}\n"
      "{\"id\": 5, \"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
      "\"param\": 0.9, \"runs\": 60}\n");
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) seen.push_back(line);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].rfind("{\"id\": 1, \"yield\"", 0), 0u) << seen[0];
  EXPECT_NE(seen[1].find("\"error\""), std::string::npos) << seen[1];
  EXPECT_NE(seen[2].find("\"error\""), std::string::npos) << seen[2];
  EXPECT_NE(seen[2].find("cell count"), std::string::npos) << seen[2];
  EXPECT_EQ(seen[3].rfind("{\"id\": 5, \"yield\"", 0), 0u) << seen[3];
}

TEST(Server, RejectedPrimariesLeaveNoSessionBehind) {
  // A design that fails to build must not leave an empty session slot:
  // session_stats() reads every slot.
  ServerOptions options;
  options.threads = 1;
  Server server(options);
  const std::string out = serve_batch(
      server,
      "{\"design\": \"dtmb2_6\", \"primaries\": 0, "
      "\"injector\": \"bernoulli\", \"param\": 0.9, \"runs\": 10}\n"
      "{\"design\": \"dtmb2_6\", \"primaries\": 30, "
      "\"injector\": \"bernoulli\", \"param\": 0.9, \"runs\": 10}\n");
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) seen.push_back(line);
  ASSERT_EQ(seen.size(), 2u) << out;
  EXPECT_EQ(seen[0].rfind("{\"id\": 1, \"error\"", 0), 0u) << seen[0];
  EXPECT_EQ(seen[1].rfind("{\"id\": 2, \"yield\"", 0), 0u) << seen[1];
  const sim::Session::Stats stats = server.session_stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.computed, 1u);
}

TEST(Server, OverlongRequestLineGetsAnErrorAndTheNextLineIsServed) {
  // The same request padded with spaces to exactly kMaxRequestBytes is
  // answered; one byte more is discarded up to its newline and answered
  // with an error, and the line after it is still served.
  const std::string request =
      R"({"id": 1, "design": "dtmb1_6", "injector": "bernoulli", )"
      R"("param": 0.9, "runs": 60})";
  ASSERT_LT(request.size(), kMaxRequestBytes);
  const auto padded = [&](std::size_t bytes) {
    return request + std::string(bytes - request.size(), ' ') + "\n";
  };
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  const std::string out =
      serve_batch(server, padded(kMaxRequestBytes) +
                              padded(kMaxRequestBytes + 1) + request + "\n");
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) seen.push_back(line);
  ASSERT_EQ(seen.size(), 3u) << out;
  EXPECT_EQ(seen[0].rfind("{\"id\": 1, \"yield\"", 0), 0u) << seen[0];
  EXPECT_NE(seen[1].find("\"error\""), std::string::npos) << seen[1];
  EXPECT_NE(seen[1].find("request line exceeds"), std::string::npos)
      << seen[1];
  EXPECT_EQ(seen[2], seen[0]);
}

TEST(Server, OutOfRangeFixedCountParamsGetErrorLines) {
  // Each param is outside int32 or not whole; the range is checked before
  // any narrowing cast, so every line is answered with an error in-stream.
  const char* kParams[] = {"1e20", "-1e20", "2147483648", "2.5"};
  std::string batch;
  for (const char* param : kParams) {
    const std::string line =
        std::string(R"({"design": "dtmb2_6", "injector": "fixed_count", )") +
        "\"param\": " + param + "}";
    const ParsedRequest parsed = parse_request(line, 1);
    EXPECT_FALSE(parsed.ok()) << line;
    EXPECT_NE(parsed.error.find("whole number of cells"), std::string::npos)
        << parsed.error;
    batch += line + "\n";
  }
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  std::istringstream lines(serve_batch(server, batch));
  std::string line;
  int answered = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"error\""), std::string::npos) << line;
    ++answered;
  }
  EXPECT_EQ(answered, 4);
  EXPECT_EQ(server.session_stats().queries, 0u);
}

TEST(Server, OverRangeClusteredParamsGetErrorLines) {
  // A mean spot count past sim::kMaxMeanSpots used to spin a worker forever
  // (3e9 overflowed the Poisson count; at 1e308 the exponent folding made
  // no progress), and a huge radius exhausted memory. Each now gets an
  // in-stream error; the cap itself still answers.
  const char* kLines[] = {
      R"({"id": 1, "design": "dtmb2_6", "injector": "clustered", )"
      R"("param": 3e9, "runs": 1})",
      R"({"id": 2, "design": "dtmb2_6", "injector": "clustered", )"
      R"("param": 1e308, "runs": 1})",
      R"({"id": 3, "design": "dtmb2_6", "injector": "clustered", )"
      R"("param": 2.0, "radius": 100000, "runs": 1})",
      R"({"id": 4, "design": "dtmb2_6", "injector": "clustered", )"
      R"("param": 1e6, "runs": 1})",
  };
  std::string batch;
  for (const char* line : kLines) batch += std::string(line) + "\n";
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  std::istringstream lines(serve_batch(server, batch));
  std::vector<std::string> seen;
  std::string line;
  while (std::getline(lines, line)) seen.push_back(line);
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[i].rfind("{\"id\": " + std::to_string(i + 1) +
                                ", \"error\"",
                            0),
              0u)
        << seen[i];
  }
  EXPECT_EQ(seen[3].rfind("{\"id\": 4, \"yield\"", 0), 0u) << seen[3];
}

TEST(Server, DuplicateQueriesComputeOnceAcrossServeCalls) {
  ServerOptions options;
  options.threads = 2;
  Server server(options);
  const std::string query =
      "{\"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
      "\"param\": 0.9, \"runs\": 100}\n";
  const std::string first = serve_batch(server, query + query + query);
  // Sessions persist across serve() calls: the same query stays cached.
  const std::string second = serve_batch(server, query);
  const sim::Session::Stats stats = server.session_stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_hits(), 3u);
  // All four answers carry identical estimates (ids differ per line).
  const auto estimate_of = [](const std::string& out, std::size_t line) {
    std::istringstream lines(out);
    std::string text;
    for (std::size_t i = 0; i <= line; ++i) EXPECT_TRUE(std::getline(lines, text));
    return text.substr(text.find(','));
  };
  EXPECT_EQ(estimate_of(first, 0), estimate_of(first, 1));
  EXPECT_EQ(estimate_of(first, 0), estimate_of(first, 2));
  EXPECT_EQ(estimate_of(first, 0), estimate_of(second, 0));
}

TEST(Server, SecondProcessComputesNothingWithASharedStore) {
  TempDir dir("shared");
  const std::string batch =
      "{\"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
      "\"param\": 0.9, \"runs\": 100}\n"
      "{\"design\": \"dtmb1_6\", \"injector\": \"fixed_count\", "
      "\"param\": 2, \"runs\": 100}\n";
  std::string first_out;
  {
    ServerOptions options;
    options.store = std::make_shared<ResultStore>(dir.path());
    Server first(options);
    first_out = serve_batch(first, batch);
    EXPECT_EQ(first.session_stats().computed, 2u);
  }
  // A fresh daemon (fresh sessions, same store) replays from disk.
  ServerOptions options;
  options.store = std::make_shared<ResultStore>(dir.path());
  Server second(options);
  EXPECT_EQ(serve_batch(second, batch), first_out);  // byte-identical
  EXPECT_EQ(second.session_stats().computed, 0u);
  EXPECT_EQ(second.session_stats().store_hits, 2u);
}

TEST(Server, DrainRequestStopsAtTheNextLineBoundary) {
  ServerOptions options;
  Server server(options);
  server.request_drain();
  // Drain already requested: the reader accepts nothing, answers nothing.
  const std::string out = serve_batch(
      server,
      "{\"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
      "\"param\": 0.9, \"runs\": 50}\n");
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(server.session_stats().queries, 0u);
}

// --------------------------------------------- campaign checkpoint/resume

constexpr std::string_view kResumeSpec =
    R"(name = resume
runs = 200
seed = 99
design = dtmb2_6
primaries = 30
injector = bernoulli
p = 0.90, 0.93, 0.95, 0.97
pool = spares_only, spares_and_unused_primaries
)";

std::string run_campaign_csv(std::int32_t threads,
                             std::shared_ptr<sim::ResultCache> store) {
  campaign::ParseResult parsed = campaign::parse_campaign_spec(kResumeSpec);
  EXPECT_TRUE(parsed.ok()) << parsed.error_text();
  campaign::CampaignSpec spec = std::move(*parsed.spec);
  spec.threads = threads;
  campaign::CampaignRunner runner(std::move(spec));
  if (store) runner.set_result_cache(std::move(store));
  std::ostringstream csv;
  campaign::CsvSink sink(csv);
  runner.add_sink(sink);
  runner.run();
  return csv.str();
}

TEST(CampaignResume, InterruptedStoreResumesByteIdenticalToCold) {
  const std::string cold = run_campaign_csv(1, nullptr);

  TempDir dir("resume");
  auto store = std::make_shared<ResultStore>(dir.path());
  EXPECT_EQ(run_campaign_csv(1, store), cold);
  store->flush();

  // Simulate an interrupted run: drop every third record and tear one of
  // the survivors mid-file, then resume at several thread counts.
  std::vector<fs::path> records;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
    if (entry.is_regular_file()) records.push_back(entry.path());
  }
  std::sort(records.begin(), records.end());
  ASSERT_GE(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); i += 3) fs::remove(records[i]);
  const fs::path torn = records[1];
  const auto size = fs::file_size(torn);
  fs::resize_file(torn, size / 2);

  for (const std::int32_t threads : {1, 4}) {
    auto resumed_store = std::make_shared<ResultStore>(dir.path());
    EXPECT_EQ(run_campaign_csv(threads, resumed_store), cold)
        << "threads=" << threads;
    const ResultStore::Stats stats = resumed_store->stats();
    EXPECT_GT(stats.hits, 0) << "threads=" << threads;
  }
  // After the first resume the store is complete again: a final pass
  // computes nothing.
  campaign::ParseResult parsed = campaign::parse_campaign_spec(kResumeSpec);
  campaign::CampaignSpec spec = std::move(*parsed.spec);
  campaign::CampaignRunner runner(std::move(spec));
  auto warm = std::make_shared<ResultStore>(dir.path());
  runner.set_result_cache(warm);
  std::ostringstream csv;
  campaign::CsvSink sink(csv);
  runner.add_sink(sink);
  runner.run();
  EXPECT_EQ(csv.str(), cold);
  EXPECT_EQ(runner.stats().unique_points, 0u);
  warm->flush();
  EXPECT_EQ(warm->stats().writes, 0);
}

// ------------------------------------------- campaign store -> daemon

constexpr std::string_view kMultiplexedStructuralSpec =
    R"(name = mux
runs = 200
seed = 0xD0E5A11
design = multiplexed
injector = fixed_count
m = 5
)";

constexpr std::string_view kMultiplexedAssaySpec =
    R"(name = mux_assay
runs = 100
seed = 0xD0E5A11
workload = assay
design = multiplexed
injector = fixed_count
m = 5
)";

/// A grid point as the wire request naming the same experiment.
std::string wire_line(const campaign::CampaignPoint& point,
                      const campaign::CampaignSpec& spec) {
  std::ostringstream line;
  line << "{\"design\": \"" << campaign::to_string(point.design) << '"';
  if (point.design != campaign::Design::kMultiplexed) {
    line << ", \"primaries\": " << point.min_primaries;
  }
  line << ", \"injector\": \"" << campaign::to_string(point.injector)
       << "\", \"param\": " << json_double(point.param)
       << ", \"runs\": " << spec.runs << ", \"seed\": " << spec.seed
       << ", \"policy\": \"" << campaign::spec_token(point.policy)
       << "\", \"pool\": \"" << campaign::spec_token(point.pool)
       << "\", \"workload\": \"" << campaign::to_string(point.workload)
       << "\", \"rng_version\": \"" << campaign::spec_token(point.rng_version)
       << "\"}";
  return line.str();
}

TEST(CampaignServe, CampaignStoreAnswersTheDaemonWithoutComputing) {
  TempDir dir("campaign_serve");
  std::string batch;
  std::string expected;
  std::uint64_t lines = 0;
  {
    auto store = std::make_shared<ResultStore>(dir.path());
    for (const std::string_view text :
         {campaign::builtin_campaign("fig9_smoke"),
          kMultiplexedStructuralSpec, kMultiplexedAssaySpec}) {
      campaign::ParseResult parsed = campaign::parse_campaign_spec(text);
      ASSERT_TRUE(parsed.ok()) << parsed.error_text();
      parsed.spec->threads = 2;
      campaign::CampaignRunner runner(std::move(*parsed.spec));
      runner.set_result_cache(store);
      for (const campaign::PointResult& result : runner.run()) {
        const std::string line = wire_line(result.point, runner.spec());
        batch += line + '\n';
        const ParsedRequest request = parse_request(line, ++lines);
        ASSERT_TRUE(request.ok()) << request.error << " in " << line;
        // Bytes of the exact-double response: equal lines mean equal
        // yield and CI bits, runs and successes.
        expected += (result.point.workload == campaign::WorkloadKind::kAssay
                         ? format_response(*request.request,
                                           result.operational)
                         : format_response(*request.request,
                                           result.estimate)) +
                    '\n';
      }
    }
    store->flush();
  }
  // 81 sized structural points, one structural and one assay point on the
  // multiplexed chip, all distinct.
  ASSERT_EQ(lines, 83u);

  ServerOptions options;
  options.threads = 2;
  options.store = std::make_shared<ResultStore>(dir.path());
  Server server(options);
  EXPECT_EQ(serve_batch(server, batch), expected);
  EXPECT_EQ(server.session_stats().computed, 0u);
  EXPECT_EQ(server.session_stats().store_hits, lines);
}

// ------------------------------------------------- satellite bugfix tests

TEST(OwningFileSink, FinishThrowsWhenTheDiskIsFull) {
  // /dev/full accepts opens and writes, then fails every flush with ENOSPC:
  // exactly the truncated-artifact case finish() must refuse to bless.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  std::string error;
  auto sink = campaign::make_file_sink(campaign::SinkKind::kCsv, "/dev/full",
                                       error);
  ASSERT_NE(sink, nullptr) << error;
  sink->begin({"a", "b"}, "t");
  sink->row({"1", "2"});
  EXPECT_THROW(sink->finish(), std::runtime_error);
}

TEST(OwningFileSink, OpenFailureNamesThePath) {
  std::string error;
  auto sink = campaign::make_file_sink(
      campaign::SinkKind::kCsv, "/nonexistent-dir/out.csv", error);
  EXPECT_EQ(sink, nullptr);
  EXPECT_NE(error.find("/nonexistent-dir/out.csv"), std::string::npos)
      << error;
}

/// The session each memo test runs on, per workload kind: structural on a
/// small DTMB(1,6) array, operational on the multiplexed assay workload.
std::unique_ptr<sim::Session> memo_session(sim::Workload workload) {
  if (workload == sim::Workload::kAssay) {
    return std::make_unique<sim::Session>(sim::AssayWorkload::multiplexed());
  }
  return std::make_unique<sim::Session>(
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb1_6, 6, 6));
}

constexpr sim::Workload kMemoWorkloads[] = {sim::Workload::kStructural,
                                            sim::Workload::kAssay};

TEST(SessionCache, EvictionBoundHoldsAndCounts) {
  for (const sim::Workload workload : kMemoWorkloads) {
    SCOPED_TRACE(static_cast<int>(workload));
    const std::unique_ptr<sim::Session> session = memo_session(workload);
    session->set_cache_capacity(4);
    sim::YieldQuery query;
    query.workload = workload;
    query.runs = 30;
    for (int i = 0; i < 10; ++i) {
      query.fault = sim::FaultModel::bernoulli(0.80 + 0.01 * i);
      session->run(query);
    }
    const sim::Session::Stats stats = session->stats();
    EXPECT_EQ(stats.computed, 10u);
    EXPECT_EQ(stats.evictions, 6u);  // 10 completed - 4 retained

    // Evicted queries recompute (correctly), retained ones hit.
    query.fault = sim::FaultModel::bernoulli(0.80);  // evicted long ago
    session->run(query);
    EXPECT_EQ(session->stats().computed, 11u);
    query.fault = sim::FaultModel::bernoulli(0.89);  // newest, retained
    session->run(query);
    EXPECT_EQ(session->stats().computed, 11u);
    EXPECT_EQ(session->stats().cache_hits(), 1u);
    EXPECT_EQ(session->stats().evictions, 7u);

    // Shrinking below the population evicts at once, oldest first, before
    // any new query completes.
    session->set_cache_capacity(2);
    EXPECT_EQ(session->stats().evictions, 9u);
    EXPECT_EQ(session->stats().queries, 12u);
    query.fault = sim::FaultModel::bernoulli(0.80);  // newest: retained
    session->run(query);
    EXPECT_EQ(session->stats().computed, 11u);
    query.fault = sim::FaultModel::bernoulli(0.88);  // evicted by the shrink
    session->run(query);
    EXPECT_EQ(session->stats().computed, 12u);
  }
}

/// ResultCache stub whose load() throws until disarmed — the
/// poisoned-external-store case.
class ThrowingCache final : public sim::ResultCache {
 public:
  std::optional<std::string> load(const std::string&) override {
    if (armed) throw std::runtime_error("store exploded");
    return std::nullopt;
  }
  void store(const std::string&, const std::string&) override {}
  bool armed = true;
};

TEST(SessionCache, FailedQueryIsErasedSoARetryRecomputes) {
  for (const sim::Workload workload : kMemoWorkloads) {
    SCOPED_TRACE(static_cast<int>(workload));
    const std::unique_ptr<sim::Session> session = memo_session(workload);
    auto cache = std::make_shared<ThrowingCache>();
    session->attach_result_cache(cache);
    sim::YieldQuery query;
    query.workload = workload;
    query.fault = sim::FaultModel::bernoulli(0.9);
    query.runs = 40;
    EXPECT_THROW(session->run(query), std::runtime_error);
    // The poisoned entry must not be cached as a permanent failure.
    cache->armed = false;
    const sim::YieldEstimate estimate = session->run(query);
    EXPECT_EQ(estimate.runs, 40);
    EXPECT_EQ(session->stats().computed, 1u);
  }
}

}  // namespace
}  // namespace dmfb::serve
