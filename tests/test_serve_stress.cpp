// Concurrency stress suite for the serving layer — the workload the
// ThreadSanitizer CI job runs against serve (ctest label: concurrency).
//
// The daemon's correctness rests on three concurrent structures: the
// bounded MPMC queue (one mutex, two condition variables), the
// ResultStore's pending map and single writer under concurrent store(),
// load() and flush() callers of the same keys, and the full Server
// pipeline (reader + worker pool + reorder buffer) at 8 threads. Each test
// hammers one of them and then re-checks the user-visible invariant —
// nothing lost, nothing duplicated, byte-identical output — because a
// benign-looking race is exactly the bug that turns into a
// one-in-a-thousand wrong answer in production.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/mpmc_queue.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"

namespace dmfb::serve {
namespace {

namespace fs = std::filesystem;

constexpr int kHammerThreads = 8;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("dmfb_serve_stress_" + tag + "_" + std::to_string(::getpid()));
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

TEST(ServeStress, MpmcQueueDeliversEveryItemExactlyOnce) {
  // 4 producers x 4 consumers over a deliberately tiny ring, so both sides
  // block constantly. Every pushed value is delivered exactly once: the
  // per-value tally and the checksum both balance.
  constexpr int kProducers = kHammerThreads / 2;
  constexpr int kConsumers = kHammerThreads / 2;
  constexpr std::uint64_t kPerProducer = 20000;
  MpmcQueue<std::uint64_t> queue(16);

  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < kConsumers; ++t) {
    consumers.emplace_back([&] {
      while (std::optional<std::uint64_t> value = queue.pop()) {
        popped_sum.fetch_add(*value, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(static_cast<std::uint64_t>(t) * kPerProducer +
                               i + 1));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  queue.close();  // producers quiesced: every accepted item must arrive
  for (std::thread& consumer : consumers) consumer.join();

  const std::uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), total);
  EXPECT_EQ(popped_sum.load(), total * (total + 1) / 2);
  EXPECT_FALSE(queue.push(7));  // closed stays closed
}

TEST(ServeStress, MpmcQueueCloseWhileConsumersBlockIsLossFree) {
  // Consumers park on an empty queue; a late producer burst then close().
  // All burst items are still delivered, all consumers wake and exit.
  MpmcQueue<int> queue(8);
  std::atomic<int> delivered{0};
  std::vector<std::thread> consumers;
  for (int t = 0; t < kHammerThreads; ++t) {
    consumers.emplace_back([&] {
      while (queue.pop()) delivered.fetch_add(1, std::memory_order_relaxed);
    });
  }
  constexpr int kBurst = 5000;
  for (int i = 0; i < kBurst; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  for (std::thread& consumer : consumers) consumer.join();
  EXPECT_EQ(delivered.load(), kBurst);
}

TEST(ServeStress, MpmcQueueCloseAfterBackpressureWakesEveryConsumer) {
  // Regression: one producer pushes through backpressure into a 4-cell
  // ring, closes it, then joins the consumers. The queue's semaphore-based
  // predecessor lost a close() wakeup here once in a few thousand rounds,
  // leaving a consumer parked in pop() with every item delivered. A
  // watchdog turns such a hang into a failure; a time budget bounds slow
  // (sanitizer) builds.
  constexpr int kRounds = 10000;
  constexpr int kConsumers = 4;
  constexpr int kItems = 64;
  using Clock = std::chrono::steady_clock;
  std::atomic<int> rounds_done{0};
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    int seen = -1;
    Clock::time_point progress = Clock::now();
    while (!finished.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const int now = rounds_done.load();
      if (now != seen) {
        seen = now;
        progress = Clock::now();
      } else if (Clock::now() - progress > std::chrono::seconds(10)) {
        std::fprintf(stderr,
                     "MpmcQueue: a consumer stayed parked after close() in "
                     "round %d\n",
                     now);
        std::abort();
      }
    }
  });
  const Clock::time_point budget = Clock::now() + std::chrono::seconds(20);
  for (int round = 0; round < kRounds && Clock::now() < budget; ++round) {
    MpmcQueue<int> queue(4);
    std::atomic<int> delivered{0};
    std::vector<std::thread> consumers;
    for (int t = 0; t < kConsumers; ++t) {
      consumers.emplace_back([&] {
        while (queue.pop()) delivered.fetch_add(1, std::memory_order_relaxed);
      });
    }
    bool pushed = true;
    for (int i = 0; i < kItems; ++i) pushed = queue.push(i) && pushed;
    queue.close();
    for (std::thread& consumer : consumers) consumer.join();
    EXPECT_TRUE(pushed);
    EXPECT_EQ(delivered.load(), kItems) << "round " << round;
    rounds_done.fetch_add(1);
  }
  finished.store(true);
  watchdog.join();
  EXPECT_GT(rounds_done.load(), 0);
}

TEST(ServeStress, ResultStoreConcurrentReadersAndWritersAgree) {
  // 8 threads hammer an overlapping key set: every thread writes and reads
  // the same 32 keys. Readers must only ever see absent or complete
  // records (rename atomicity) — never torn bytes, never a foreign payload.
  TempDir dir("store");
  ResultStore store(dir.path());
  constexpr int kKeys = 32;
  constexpr int kRounds = 60;
  const auto payload_of = [](int key) {
    return "payload-" + std::to_string(key);
  };

  std::atomic<int> wrong{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < kHammerThreads; ++t) {
    hammers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const std::string key = "key-" + std::to_string(k);
          if ((round + t + k) % 3 == 0) {
            store.store(key, payload_of(k));
          } else if (const auto loaded = store.load(key)) {
            if (*loaded != payload_of(k)) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& hammer : hammers) hammer.join();
  store.flush();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(store.stats().corrupt_dropped, 0);

  // Quiescent state: every key loads its payload, no temp files linger.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(store.load("key-" + std::to_string(k)),
              std::optional<std::string>(payload_of(k)));
  }
  for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
    if (entry.is_regular_file()) {
      EXPECT_EQ(entry.path().extension(), ".rec") << entry.path();
    }
  }
}

TEST(ServeStress, ResultStoreStoreLoadFlushFromEightThreads) {
  // 8 threads store their own keys through the one writer, read each back
  // at once, and flush every 16 stores: a flushed record is on disk, and a
  // reopened store reads them all.
  TempDir dir("writer");
  constexpr int kPerThread = 200;
  const auto key_of = [](int thread, int i) {
    return "t" + std::to_string(thread) + "-" + std::to_string(i);
  };
  std::atomic<int> wrong{0};
  {
    ResultStore store(dir.path());
    std::vector<std::thread> hammers;
    for (int t = 0; t < kHammerThreads; ++t) {
      hammers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string key = key_of(t, i);
          store.store(key, "payload-" + key);
          if (store.load(key) != "payload-" + key) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
          if (i % 16 == 15) {
            store.flush();
            if (!fs::exists(store.path_of(key))) {
              wrong.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (std::thread& hammer : hammers) hammer.join();
    store.flush();
    EXPECT_EQ(store.stats().writes, kHammerThreads * kPerThread);
  }
  EXPECT_EQ(wrong.load(), 0);
  ResultStore reopened(dir.path());
  for (int t = 0; t < kHammerThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(reopened.load(key_of(t, i)), "payload-" + key_of(t, i));
    }
  }
}

TEST(ServeStress, EightWorkerServerMatchesSerialByteForByte) {
  // The full pipeline under maximum interleaving: duplicate-heavy batch,
  // tiny queue (constant backpressure), 8 workers vs the serial reference.
  std::string batch;
  for (int i = 0; i < 96; ++i) {
    const double p = 0.88 + 0.01 * (i % 4);
    const int runs = 50 + 150 * (i % 3);
    batch += "{\"design\": \"dtmb1_6\", \"injector\": \"bernoulli\", "
             "\"param\": " +
             std::to_string(p) + ", \"runs\": " + std::to_string(runs) +
             "}\n";
  }
  const auto serve_all = [&](std::int32_t threads) {
    ServerOptions options;
    options.threads = threads;
    options.queue_capacity = 4;
    Server server(options);
    std::istringstream in(batch);
    std::ostringstream out;
    const std::uint64_t answered = server.serve(in, out);
    EXPECT_EQ(answered, 96u);
    // Duplicate-heavy by construction: 12 distinct (p, runs) pairs.
    EXPECT_EQ(server.session_stats().computed, 12u);
    return out.str();
  };
  const std::string serial = serve_all(1);
  const std::string parallel = serve_all(kHammerThreads);
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace dmfb::serve
