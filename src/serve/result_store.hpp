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
// Durability & corruption tolerance: writes go to a unique temp file in
// the same directory, flushed, then renamed over the final path — readers
// only ever see absent or complete records (POSIX rename atomicity). Loads
// parse strictly: a missing line, wrong magic, key mismatch, or checksum
// mismatch makes the record a miss (counted corrupt where the bytes are
// bad), never a crash. store() is best-effort and never throws: a full
// disk loses the cache entry, not the computation. A temp file outlives
// its store() call only when the writer dies before the rename; opening a
// store removes the temps of writers that are no longer running.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

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

  /// The intact payload stored under exactly `key`, or nullopt (absent,
  /// torn, corrupt, or hash-colliding record). Never throws.
  std::optional<std::string> load(const std::string& key) override;

  /// Persists `payload` under `key` via write-temp-then-rename.
  /// Best-effort: on any I/O failure the temp file is removed and the
  /// store simply misses later. Key and payload must be single-line
  /// (no '\n') — true of every sim store key and codec payload.
  void store(const std::string& key, const std::string& payload) override;

  const std::filesystem::path& root() const noexcept { return root_; }

  /// Lifetime counters (also mirrored into obs::Registry when installed).
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;           ///< includes corrupt_dropped
    std::int64_t writes = 0;
    std::int64_t corrupt_dropped = 0;  ///< records dropped as unparsable
  };
  Stats stats() const noexcept;

  /// The record path `key` addresses (exposed for tests and inspection).
  std::filesystem::path path_of(const std::string& key) const;

 private:
  std::filesystem::path root_;
  std::atomic<std::uint64_t> temp_counter_{0};
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> writes_{0};
  std::atomic<std::int64_t> corrupt_{0};
};

}  // namespace dmfb::serve
