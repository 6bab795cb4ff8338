// serve::Server — the dmfb_serve daemon core, reusable in-process.
//
// One serve() call is one daemon lifetime: a reader loop (the calling
// thread) parses jsonl requests, resolves each onto a shared sim::Session
// for its (design, primaries), opened by campaign::open_session as the
// campaign runner opens its own, and shards the work across a bounded
// MpmcQueue drained by a worker pool. Responses stream back in submission
// order — a reorder buffer holds completed answers until their
// predecessors land, and whichever worker completes the next-in-line
// answer drains the buffer inline, so ordering costs no dedicated thread.
//
// Sessions persist across serve() calls (the daemon's in-memory tier);
// attach a ResultStore via ServerOptions to add the durable tier that
// survives restarts. Session caches are bounded (ServerOptions::
// cache_capacity), so a long-lived daemon's memory is too.
//
// Shutdown: EOF on the input drains naturally. request_drain() — async-
// signal-safe, call it from a SIGTERM/SIGINT handler — stops the reader at
// the next line boundary; everything already accepted is still computed
// and answered before serve() returns. No answer is ever dropped or
// emitted out of order. serve() blocks SIGTERM and SIGINT in its worker
// threads, so a handler installed without SA_RESTART interrupts the
// reader's blocking read even while the daemon is idle; the read then ends
// as end of input, and a line it cut short is dropped unanswered.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <utility>

#include "campaign/spec.hpp"
#include "serve/protocol.hpp"
#include "sim/session.hpp"

namespace dmfb::serve {

/// Longest request line serve() buffers, newline excluded. A wire request
/// names one fault model with scalar fields and stays under 1 KiB; a longer
/// line is discarded up to its newline, never buffered past this cap, and
/// answered with an in-stream error.
inline constexpr std::size_t kMaxRequestBytes = 64 * 1024;

struct ServerOptions {
  /// Worker threads: 0 = one per hardware thread.
  std::int32_t threads = 1;
  /// Bounded work-queue depth; a full queue backpressures the reader.
  std::size_t queue_capacity = 256;
  /// Per-session cache bound (completed entries kept in memory).
  std::size_t cache_capacity = sim::kDefaultCacheCapacity;
  /// Best-effort: pin worker i to CPU i mod hardware_concurrency.
  bool pin_workers = false;
  /// Durable result tier; nullable. Typically a serve::ResultStore.
  std::shared_ptr<sim::ResultCache> store;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  /// Serves requests from `in` (one JSON object per line of at most
  /// kMaxRequestBytes; blank lines are skipped) until EOF or
  /// request_drain(), writing one response line per request to `out` in
  /// submission order. Returns the number of response lines written
  /// (answers + per-line errors). Not reentrant.
  std::uint64_t serve(std::istream& in, std::ostream& out);

  /// Requests a graceful drain: the reader stops at the next line
  /// boundary, accepted queries finish and answer. Async-signal-safe.
  void request_drain() noexcept {
    drain_.store(true, std::memory_order_release);
  }
  bool drain_requested() const noexcept {
    return drain_.load(std::memory_order_acquire);
  }

  /// Aggregated cache accounting across all sessions the daemon created.
  sim::Session::Stats session_stats() const;

 private:
  std::shared_ptr<sim::Session> session_for(const ServeRequest& request);

  ServerOptions options_;
  std::atomic<bool> drain_{false};
  /// (design, min_primaries) -> shared session; multiplexed sessions are
  /// workload-backed so they answer structural and assay queries alike.
  std::map<std::pair<campaign::Design, std::int32_t>,
           std::shared_ptr<sim::Session>>
      sessions_;
};

}  // namespace dmfb::serve
