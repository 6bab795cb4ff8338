// serve::ResultStore — durable, content-addressed on-disk result cache.
//
// The persistence layer behind dmfb_serve and campaign checkpoint/resume:
// a sim::ResultCache whose records live as one small file per (design,
// query) store key under a root directory. The payloads are the bit-exact
// sim codecs (encode_estimate / encode_operational), so a loaded estimate
// is byte-identical to the computed one and resumed-campaign artifacts
// diff clean against cold runs.
//
// Layout: root/<hh>/<32-hex>.rec where <32-hex> is a 128-bit FNV-1a hash
// of the store key and <hh> its first byte (256-way fan-out keeps
// directories small). The record itself carries the full key, so a hash
// collision degrades to a miss — never to a wrong answer.
//
// Record format (line-based, LF):
//   dmfb-store 1
//   <store key>
//   <payload>
//   crc <16-hex FNV-1a over "<key>\n<payload>">
//
// Write path: store() records the payload in an in-memory pending map,
// queues the key for one writer thread (started by the first store(), with
// SIGTERM and SIGINT blocked) and returns at once, so a caller never waits
// on the filesystem unless the bounded queue is full. The writer writes a
// unique temp file in the record's directory, flushes it and renames it
// over the final path — readers only ever see absent or complete records
// (POSIX rename atomicity) — then drops the key from the pending map.
// load() answers from the pending map first, so a stored record is
// readable at once. flush() waits for every record queued before it; the
// destructor flushes and joins the writer. A process killed before its
// writer caught up loses only the queued records, which are recomputed.
//
// Corruption tolerance: loads parse strictly: a missing line, wrong magic,
// key mismatch, or checksum mismatch makes the record a miss (counted
// corrupt where the bytes are bad), never a crash. Writes are best-effort
// and never throw: a full disk or a removed root loses the cache entry,
// not the computation. A temp file outlives its write only when the
// process dies before the rename; opening a store removes the temps of
// writers that are no longer running.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "serve/mpmc_queue.hpp"
#include "sim/session.hpp"

namespace dmfb::serve {

class ResultStore final : public sim::ResultCache {
 public:
  /// Opens (creating directories as needed) a store rooted at `root`, and
  /// removes the temp files of dead writers (see the header comment).
  /// Throws std::filesystem::filesystem_error when the root cannot be
  /// created — a store you cannot write to at all is a configuration
  /// error, unlike a record that fails later.
  explicit ResultStore(std::filesystem::path root);
  /// Flushes, then joins the writer.
  ~ResultStore() override;

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// The payload stored under exactly `key`: a pending record's, else the
  /// intact record's on disk, else nullopt (absent, torn, corrupt, or
  /// hash-colliding record). Never throws.
  std::optional<std::string> load(const std::string& key) override;

  /// Queues `payload` under `key` for the writer and returns; it blocks
  /// only while the write queue is full. A later store() of the same key
  /// supersedes a queued one. Best-effort: on any I/O failure the writer
  /// removes its temp file and the store simply misses later. Key and
  /// payload must be single-line (no '\n') — true of every sim store key
  /// and codec payload; a violation throws ContractViolation.
  void store(const std::string& key, const std::string& payload) override;

  /// Returns once every record queued before the call is on disk or
  /// dropped by a failed write.
  void flush();

  const std::filesystem::path& root() const noexcept { return root_; }

  /// Lifetime counters (also mirrored into obs::Registry when installed).
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;           ///< includes corrupt_dropped
    std::int64_t writes = 0;           ///< renames landed so far
    std::int64_t corrupt_dropped = 0;  ///< records dropped as unparsable
  };
  Stats stats() const noexcept;

  /// The record path `key` addresses (exposed for tests and inspection).
  std::filesystem::path path_of(const std::string& key) const;

 private:
  /// Bound on records waiting for the writer; a store() beyond it waits.
  static constexpr std::size_t kWriteQueueCapacity = 1024;

  struct Pending {
    std::string payload;
    std::uint64_t ticket = 0;  ///< the store() call that queued it
  };
  struct Queued {
    std::string key;
    std::uint64_t ticket = 0;
  };

  void write_pending(const Queued& queued);
  void write_record(const std::string& key, const std::string& payload);
  /// Drops `key`'s pending record if `ticket` still owns it, and counts
  /// the ticket done for flush().
  void finish(const std::string& key, std::uint64_t ticket);

  std::filesystem::path root_;
  std::uint64_t temp_counter_ = 0;  ///< writer thread only
  MpmcQueue<Queued> queue_{kWriteQueueCapacity};
  std::mutex mutex_;  ///< guards pending_, the tickets and writer_ start
  std::condition_variable written_;
  std::unordered_map<std::string, Pending> pending_;
  std::uint64_t queued_ = 0;    ///< tickets issued
  std::uint64_t finished_ = 0;  ///< tickets the writer is done with
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> writes_{0};
  std::atomic<std::int64_t> corrupt_{0};
  std::thread writer_;  ///< last: it uses every member above
};

}  // namespace dmfb::serve
