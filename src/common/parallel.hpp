// The one worker pool of the stack: sim::Session deals Monte-Carlo run
// batches through it, the campaign runner deals grid points, and the serve
// daemon sizes its workers with the same thread-resolution rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dmfb::common {

/// Resolves a requested worker count: 0 = one per hardware thread (at
/// least 1), anything else passes through.
std::int32_t resolve_worker_threads(std::int32_t requested) noexcept;

/// Deals items [0, count) over `workers` threads, one item per atomic pop,
/// calling work(worker, item) with worker in [0, workers); each worker's
/// calls run sequentially on one thread. The first exception any call
/// throws parks the queue (the other workers stop at their next pop) and is
/// rethrown here once every worker has joined. With workers <= 1 every item
/// runs inline on the caller's thread, in item order, as worker 0.
template <typename Work>
void deal_items(std::int32_t workers, std::int64_t count, Work&& work) {
  if (workers <= 1) {
    for (std::int64_t item = 0; item < count; ++item) work(0, item);
    return;
  }
  std::atomic<std::int64_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&](std::int32_t slot) {
    try {
      for (;;) {
        const std::int64_t item = next.fetch_add(1, std::memory_order_relaxed);
        if (item >= count) break;
        work(slot, item);
      }
    } catch (...) {
      const std::scoped_lock lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      next.store(count, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (std::int32_t slot = 0; slot < workers; ++slot) {
    pool.emplace_back(worker, slot);
  }
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dmfb::common
