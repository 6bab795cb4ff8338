// serve::MpmcQueue — bounded multi-producer multi-consumer work queue.
//
// The dispatch backbone of dmfb_serve (the stdin reader pushes work items,
// the worker pool pops them) and of serve::ResultStore (store() calls push
// records, the one writer thread pops them). A power-of-two ring guarded by
// one mutex, with two condition variables for blocking: a full queue
// backpressures producers on `not_full_`, an empty one parks consumers on
// `not_empty_`. Every state change a waiter depends on happens under the
// mutex, so no wakeup can fall between a waiter's check and its wait.
//
// Shutdown: close() wakes every blocked producer and consumer. After
// close(), push() refuses new work (returns false) while pop() keeps
// returning the items already accepted until the ring is empty, then
// nullopt — the graceful-drain contract: every accepted query is answered,
// nothing after the close is.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/contracts.hpp"

namespace dmfb::serve {

template <typename T>
class MpmcQueue {
 public:
  /// `capacity` is rounded up to a power of two (>= 2) for mask indexing.
  explicit MpmcQueue(std::size_t capacity)
      : mask_(round_up(capacity) - 1),
        cells_(std::make_unique<T[]>(round_up(capacity))) {
    DMFB_EXPECTS(capacity > 0);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Blocks while the queue is full. Returns false (dropping `value`) once
  /// the queue is closed — including producers already blocked in push()
  /// when close() lands.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || tail_ - head_ <= mask_; });
    if (closed_) return false;
    cells_[tail_++ & mask_] = std::move(value);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty and open. Returns nullopt only when
  /// the queue is closed AND fully drained; items accepted before close()
  /// are always delivered.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || head_ != tail_; });
    if (head_ == tail_) return std::nullopt;
    std::optional<T> value(std::move(cells_[head_++ & mask_]));
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Idempotent. Wakes all blocked producers (which give up) and consumers
  /// (which drain the ring, then see nullopt).
  ///
  /// Delivery guarantee: items whose push() returned before close() was
  /// called are always delivered. A push racing close() may win or lose the
  /// race (false); callers that need every accepted item answered — like
  /// the serve reader thread — must quiesce producers before closing.
  void close() {
    {
      const std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    const std::scoped_lock lock(mutex_);
    return closed_;
  }

 private:
  static constexpr std::size_t round_up(std::size_t capacity) noexcept {
    std::size_t size = 2;
    while (size < capacity) size <<= 1;
    return size;
  }

  const std::size_t mask_;
  std::unique_ptr<T[]> cells_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;   ///< producers wait for a free cell
  std::condition_variable not_empty_;  ///< consumers wait for an item
  std::size_t head_ = 0;  ///< next cell to pop (monotonic; masked on use)
  std::size_t tail_ = 0;  ///< next cell to push
  bool closed_ = false;
};

}  // namespace dmfb::serve
