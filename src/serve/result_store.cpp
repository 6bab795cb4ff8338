#include "serve/result_store.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <climits>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "serve/drain_signals.hpp"

namespace dmfb::serve {

namespace {

constexpr std::string_view kMagic = "dmfb-store 1";

std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ULL) noexcept {
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int nibble = 15; nibble >= 0; --nibble) {
    out[static_cast<std::size_t>(nibble)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::string crc_line(const std::string& key, const std::string& payload) {
  return "crc " + hex64(fnv1a64(payload, fnv1a64("\n", fnv1a64(key))));
}

/// The writer pid of a record temp name "<record>.rec.tmp.<pid>.<n>", or
/// 0 when `name` is not such a temp.
pid_t temp_writer(const std::string& name) {
  constexpr std::string_view kTempTag = ".rec.tmp.";
  const std::size_t tag = name.find(kTempTag);
  if (tag == std::string::npos) return 0;
  const char* first = name.data() + tag + kTempTag.size();
  const char* last = name.data() + name.size();
  long long pid = 0;
  const auto [end, error] = std::from_chars(first, last, pid);
  if (error != std::errc() || end == first || end == last || *end != '.' ||
      pid <= 0 || pid > INT_MAX) {
    return 0;
  }
  return static_cast<pid_t>(pid);
}

/// Removes the temps that the writers of dead processes left behind (a
/// kill -9 between create and rename). A temp whose writer is alive, or is
/// this process, may still be renamed into place and stays, as does every
/// record. Best-effort: an unreadable directory or a failed removal is
/// skipped.
void sweep_orphaned_temps(const std::filesystem::path& root) {
  using std::filesystem::directory_iterator;
  const pid_t self = ::getpid();
  std::error_code error;
  // increment(error), not ++: a directory that vanishes mid-walk ends the
  // sweep instead of throwing out of the constructor.
  for (directory_iterator shard(root, error), end; !error && shard != end;
       shard.increment(error)) {
    std::error_code entry_error;
    for (directory_iterator entry(shard->path(), entry_error);
         !entry_error && entry != end; entry.increment(entry_error)) {
      const pid_t writer = temp_writer(entry->path().filename().string());
      if (writer == 0 || writer == self) continue;
      if (::kill(writer, 0) == -1 && errno == ESRCH) {
        std::error_code ignored;
        std::filesystem::remove(entry->path(), ignored);
      }
    }
  }
}

}  // namespace

ResultStore::ResultStore(std::filesystem::path root)
    : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
  sweep_orphaned_temps(root_);
}

ResultStore::~ResultStore() {
  // close() still delivers every queued record: joining the writer flushes.
  queue_.close();
  if (writer_.joinable()) writer_.join();
}

std::filesystem::path ResultStore::path_of(const std::string& key) const {
  // Two independent FNV-1a passes (the second over the reversed-role seed)
  // make a 128-bit address: collisions are already vanishing at 64 bits,
  // and the full-key check in load() makes even those harmless.
  const std::uint64_t lo = fnv1a64(key);
  const std::uint64_t hi = fnv1a64(key, 0x6c62272e07bb0142ULL);
  const std::string name = hex64(hi) + hex64(lo);
  return root_ / name.substr(0, 2) / (name + ".rec");
}

std::optional<std::string> ResultStore::load(const std::string& key) {
  const auto miss = [this](bool corrupt) -> std::optional<std::string> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Metric::kStoreMisses);
    if (corrupt) {
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Metric::kStoreCorruptDropped);
    }
    return std::nullopt;
  };
  try {
    {
      const std::scoped_lock lock(mutex_);
      if (const auto found = pending_.find(key); found != pending_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Metric::kStoreHits);
        return found->second.payload;
      }
    }
    std::ifstream in(path_of(key), std::ios::binary);
    if (!in.is_open()) return miss(false);
    std::string magic, stored_key, payload, crc;
    if (!std::getline(in, magic) || !std::getline(in, stored_key) ||
        !std::getline(in, payload) || !std::getline(in, crc)) {
      return miss(true);  // torn record: fewer lines than the format
    }
    if (magic != kMagic) {
      // A future schema is not corruption — just not ours to read.
      return miss(false);
    }
    if (crc != crc_line(stored_key, payload)) return miss(true);
    if (stored_key != key) {
      // Intact record for a different key: 128-bit hash collision.
      return miss(false);
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Metric::kStoreHits);
    return payload;
  } catch (...) {
    return miss(true);
  }
}

void ResultStore::store(const std::string& key, const std::string& payload) {
  DMFB_EXPECTS(key.find('\n') == std::string::npos);
  DMFB_EXPECTS(payload.find('\n') == std::string::npos);
  std::uint64_t ticket = 0;
  try {
    {
      const std::scoped_lock lock(mutex_);
      if (!writer_.joinable()) {
        const DrainSignalsBlocked blocked;
        writer_ = std::thread([this] {
          while (const std::optional<Queued> queued = queue_.pop()) {
            write_pending(*queued);
          }
        });
      }
      ticket = ++queued_;
      pending_.insert_or_assign(key, Pending{payload, ticket});
    }
    if (queue_.push(Queued{key, ticket})) return;
  } catch (...) {
    // Best-effort contract: a writer that cannot start or a failed
    // allocation loses the cache entry, not the caller's computation.
  }
  if (ticket != 0) finish(key, ticket);
}

void ResultStore::flush() {
  std::unique_lock lock(mutex_);
  const std::uint64_t target = queued_;
  written_.wait(lock, [&] { return finished_ >= target; });
}

void ResultStore::write_pending(const Queued& queued) {
  // Only the key's latest store() writes: an older ticket was superseded,
  // and the newer one is still queued or has already landed.
  try {
    std::optional<std::string> payload;
    {
      const std::scoped_lock lock(mutex_);
      if (const auto found = pending_.find(queued.key);
          found != pending_.end() && found->second.ticket == queued.ticket) {
        payload = found->second.payload;
      }
    }
    if (payload) write_record(queued.key, *payload);
  } catch (...) {
    // A payload that cannot be copied is lost like a failed write; the
    // ticket still finishes, so flush() returns.
  }
  finish(queued.key, queued.ticket);
}

void ResultStore::finish(const std::string& key, std::uint64_t ticket) {
  {
    const std::scoped_lock lock(mutex_);
    if (const auto found = pending_.find(key);
        found != pending_.end() && found->second.ticket == ticket) {
      pending_.erase(found);
    }
    ++finished_;
  }
  written_.notify_all();
}

void ResultStore::write_record(const std::string& key,
                               const std::string& payload) {
  std::filesystem::path temp;
  try {
    const std::filesystem::path target = path_of(key);
    // The shard only, never the root: a store whose root was removed
    // loses its writes rather than resurrect the directory.
    std::error_code shard_error;
    std::filesystem::create_directory(target.parent_path(), shard_error);
    if (shard_error) return;
    // Unique per (process, record): writers of other processes never share
    // a temp file, and whichever rename lands last wins with a complete
    // record either way.
    temp = target;
    temp += ".tmp." + std::to_string(::getpid()) + "." +
            std::to_string(temp_counter_++);
    {
      std::ofstream out(temp, std::ios::binary | std::ios::trunc);
      if (!out.is_open()) return;
      out << kMagic << '\n'
          << key << '\n'
          << payload << '\n'
          << crc_line(key, payload) << '\n';
      out.flush();
      if (!out.good()) {
        out.close();
        std::filesystem::remove(temp);
        return;
      }
    }
    std::filesystem::rename(temp, target);
    writes_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Metric::kStoreWrites);
  } catch (...) {
    // Best-effort contract: leave no temp behind, lose only the cache entry.
    if (!temp.empty()) {
      std::error_code ignored;
      std::filesystem::remove(temp, ignored);
    }
  }
}

ResultStore::Stats ResultStore::stats() const noexcept {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.writes = writes_.load(std::memory_order_relaxed);
  stats.corrupt_dropped = corrupt_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace dmfb::serve
