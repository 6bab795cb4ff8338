#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#ifdef __linux__
#include <sched.h>
#endif

#include "campaign/runner.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "serve/drain_signals.hpp"
#include "serve/mpmc_queue.hpp"

namespace dmfb::serve {

namespace {

/// Submission-order response stream: answers arrive in completion order,
/// leave in sequence order. Whichever thread completes the next-in-line
/// response drains everything that is now contiguous — no emitter thread.
class OrderedEmitter {
 public:
  explicit OrderedEmitter(std::ostream& out) : out_(out) {}

  void emit(std::uint64_t seq, std::string line) {
    const std::scoped_lock lock(mutex_);
    pending_.emplace(seq, std::move(line));
    bool wrote = false;
    while (!pending_.empty() && pending_.begin()->first == next_) {
      out_ << pending_.begin()->second << '\n';
      pending_.erase(pending_.begin());
      ++next_;
      wrote = true;
    }
    if (wrote) out_.flush();
  }

 private:
  std::ostream& out_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::string> pending_;
  std::uint64_t next_ = 1;
};

struct WorkItem {
  std::uint64_t seq = 0;
  ServeRequest request;
  std::shared_ptr<sim::Session> session;
};

void process(WorkItem& item, OrderedEmitter& emitter) {
  try {
    const sim::YieldQuery query = query_of(item.request);
    if (item.request.workload == campaign::WorkloadKind::kAssay) {
      emitter.emit(item.seq, format_response(
                                 item.request,
                                 item.session->run_operational(query)));
    } else {
      emitter.emit(item.seq,
                   format_response(item.request, item.session->run(query)));
    }
  } catch (const std::exception& error) {
    // Bad parameters (factory contract violations) or compute failures
    // answer in-stream; the daemon keeps serving.
    emitter.emit(item.seq, format_error(item.request.id, error.what()));
  }
}

void pin_worker(std::thread& thread, unsigned index) {
#ifdef __linux__
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cpus, &set);
  // Best-effort: a restricted cpuset or exotic kernel just leaves the
  // worker floating.
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#else
  (void)thread;
  (void)index;
#endif
}

enum class LineRead : std::uint8_t { kLine, kTooLong, kEof };

/// Reads one '\n'-terminated line into `line`, storing at most
/// kMaxRequestBytes bytes: a longer line is consumed up to its newline (or
/// EOF) without being stored, and reported as kTooLong. kEof means nothing
/// was left to read; a final line without a newline still counts.
LineRead read_request_line(std::istream& in, std::string& line) {
  line.clear();
  const std::istream::sentry ready(in, /*noskipws=*/true);
  if (!ready) return LineRead::kEof;
  std::streambuf& buffer = *in.rdbuf();
  bool extracted = false;
  bool too_long = false;
  for (;;) {
    const int ch = buffer.sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      if (!extracted) return LineRead::kEof;
      break;
    }
    extracted = true;
    if (ch == '\n') break;
    if (line.size() < kMaxRequestBytes) {
      line.push_back(static_cast<char>(ch));
    } else {
      too_long = true;
    }
  }
  return too_long ? LineRead::kTooLong : LineRead::kLine;
}

bool blank(const std::string& line) {
  for (const char ch : line) {
    if (ch != ' ' && ch != '\t' && ch != '\r') return false;
  }
  return true;
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {}

std::shared_ptr<sim::Session> Server::session_for(
    const ServeRequest& request) {
  // Reader-thread only: workers never touch the map, they hold their item's
  // shared_ptr. The multiplexed chip is fixed-size, so its primaries key
  // collapses to 0 (any requested minimum resolves to the same session).
  const bool multiplexed = request.design == campaign::Design::kMultiplexed;
  const std::pair<campaign::Design, std::int32_t> key{
      request.design, multiplexed ? 0 : request.min_primaries};
  if (const auto found = sessions_.find(key); found != sessions_.end()) {
    return found->second;
  }
  // Opened before it is inserted: a build that throws leaves no entry.
  std::shared_ptr<sim::Session> session =
      campaign::open_session(key.first, key.second, options_.store);
  session->set_cache_capacity(options_.cache_capacity);
  sessions_.emplace(key, session);
  return session;
}

std::uint64_t Server::serve(std::istream& in, std::ostream& out) {
  MpmcQueue<WorkItem> queue(options_.queue_capacity);
  OrderedEmitter emitter(out);

  const std::int32_t workers =
      common::resolve_worker_threads(options_.threads);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  {
    const DrainSignalsBlocked blocked;
    for (std::int32_t t = 0; t < workers; ++t) {
      pool.emplace_back([&queue, &emitter] {
        while (std::optional<WorkItem> item = queue.pop()) {
          process(*item, emitter);
        }
      });
      if (options_.pin_workers) {
        pin_worker(pool.back(), static_cast<unsigned>(t));
      }
    }
  }

  // The reader answers the lines it rejects itself. It writes with the
  // drain signals blocked: a signal that interrupted a write to a full
  // stdout pipe would fail it with EINTR and leave the output stream failed.
  const auto answer_here = [&emitter](std::uint64_t at, std::string reply) {
    const DrainSignalsBlocked blocked;
    emitter.emit(at, std::move(reply));
  };
  std::uint64_t seq = 0;
  std::string line;
  LineRead read = LineRead::kEof;
  while (!drain_requested() &&
         (read = read_request_line(in, line)) != LineRead::kEof) {
    // A drain signal ends a blocked read as end of input; the line it cut
    // short is dropped unanswered.
    if (in.eof() && drain_requested()) break;
    if (read == LineRead::kTooLong) {
      ++seq;
      answer_here(seq, format_error(std::to_string(seq),
                                    "request line exceeds " +
                                        std::to_string(kMaxRequestBytes) +
                                        " bytes"));
      continue;
    }
    if (blank(line)) continue;
    ++seq;
    ParsedRequest parsed = parse_request(line, seq);
    if (!parsed.ok()) {
      answer_here(seq, format_error(std::to_string(seq), parsed.error));
      continue;
    }
    WorkItem item;
    item.seq = seq;
    item.request = std::move(*parsed.request);
    try {
      item.session = session_for(item.request);
      // Geometry-dependent validation needs the built design, so it lives
      // here rather than in parse_request.
      if (item.request.injector == campaign::InjectorKind::kFixedCount &&
          static_cast<std::int32_t>(item.request.param) >
              item.session->design().cell_count()) {
        answer_here(seq, format_error(
                             item.request.id,
                             "fixed_count param exceeds the design's cell "
                             "count"));
        continue;
      }
    } catch (const std::exception& error) {
      answer_here(seq, format_error(item.request.id, error.what()));
      continue;
    }
    if (!queue.push(std::move(item))) {
      // Only reachable if a future revision closes the queue early; answer
      // rather than go silent.
      answer_here(seq, format_error(std::to_string(seq),
                                    "server is draining"));
      break;
    }
  }

  // Reader is the only producer and has stopped: close() now guarantees
  // every accepted item is still delivered, then workers see nullopt.
  queue.close();
  for (std::thread& worker : pool) worker.join();
  return seq;
}

sim::Session::Stats Server::session_stats() const {
  sim::Session::Stats total;
  for (const auto& [key, session] : sessions_) {
    const sim::Session::Stats stats = session->stats();
    total.queries += stats.queries;
    total.computed += stats.computed;
    total.store_hits += stats.store_hits;
    total.evictions += stats.evictions;
  }
  return total;
}

}  // namespace dmfb::serve
