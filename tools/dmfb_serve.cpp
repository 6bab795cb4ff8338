// dmfb_serve: long-lived yield-estimation daemon. Reads one JSON query
// per line on stdin, computes yield estimates on a pinned worker pool over
// shared sim::Sessions, and streams one JSON answer per line to stdout in
// submission order. See docs/SERVING.md for the wire protocol.
//
// Usage:
//   dmfb_serve [options] < queries.jsonl > answers.jsonl
//
// Options:
//   --threads N      worker threads (0 = hardware concurrency; default 1)
//   --queue N        bounded work-queue depth (default 256)
//   --cache N        per-session in-memory cache bound (completed entries)
//   --pin            pin worker i to CPU i mod hardware_concurrency
//   --store DIR      durable result store shared with dmfb_campaign:
//                    previously answered queries load instead of
//                    recomputing, and survive daemon restarts
//   --stats-json P   on exit, write a one-line JSON stats summary to P
//                    (also always printed to stderr)
//
// Shutdown: EOF on stdin drains naturally. SIGTERM/SIGINT stop the reader
// at once, even while it waits for input: a line the signal cuts short is
// dropped unanswered, and every query already accepted is still computed
// and answered, and its --store record written, before exit. Exit status
// is 0 after a clean drain, 1 on setup failure (bad store directory), 2 on
// bad usage.
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/parse.hpp"
#include "core/version.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] < queries.jsonl > answers.jsonl\n"
      << "options:\n"
      << "  --threads N    worker threads (0 = hardware; default 1)\n"
      << "  --queue N      bounded work-queue depth (default 256)\n"
      << "  --cache N      per-session cache bound (completed entries)\n"
      << "  --pin          pin workers to CPUs (best effort)\n"
      << "  --store DIR    durable result store (shared with dmfb_campaign)\n"
      << "  --stats-json P write exit stats as one JSON line to P\n";
  return 2;
}

// The signal handler needs a stable address before any signal can arrive;
// the server itself is built in main after flag parsing.
dmfb::serve::Server* g_server = nullptr;
// /dev/null, opened before the handler is installed (-1 if it could not be).
int g_null_input = -1;

extern "C" void handle_drain_signal(int) {
  const int saved_errno = errno;
  if (g_server != nullptr) g_server->request_drain();
  // A signal that lands after the reader checked the drain flag but before
  // it entered read() interrupts nothing. With /dev/null in place of stdin
  // that read ends at once, as end of input.
  if (g_null_input >= 0) dup2(g_null_input, STDIN_FILENO);
  errno = saved_errno;
}

std::string stats_json(const dmfb::sim::Session::Stats& stats,
                       std::uint64_t answered) {
  std::string out = "{\"answered\": " + std::to_string(answered);
  out += ", \"queries\": " + std::to_string(stats.queries);
  out += ", \"computed\": " + std::to_string(stats.computed);
  out += ", \"store_hits\": " + std::to_string(stats.store_hits);
  out += ", \"cache_hits\": " + std::to_string(stats.cache_hits());
  out += ", \"evictions\": " + std::to_string(stats.evictions);
  out += "}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmfb;

  serve::ServerOptions options;
  std::string store_dir;
  std::string stats_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Path flags accept both "--flag PATH" and "--flag=PATH", matching
    // dmfb_campaign.
    std::string inline_value;
    if (arg.starts_with("--store=") || arg.starts_with("--stats-json=")) {
      const auto equals = arg.find('=');
      inline_value = arg.substr(equals + 1);
      arg.resize(equals);
    }
    const auto path_value = [&]() -> std::string {
      if (!inline_value.empty()) return inline_value;
      const char* value = next_value();
      return value ? std::string(value) : std::string();
    };
    if (arg == "--threads") {
      const char* value = next_value();
      const auto parsed =
          value ? common::parse_int_in(value, 0, 4096) : std::nullopt;
      if (!parsed) {
        std::cerr << argv[0] << ": --threads needs an integer in [0, 4096]\n";
        return 2;
      }
      options.threads = static_cast<std::int32_t>(*parsed);
    } else if (arg == "--queue") {
      const char* value = next_value();
      const auto parsed =
          value ? common::parse_int_in(value, 1, 1 << 20) : std::nullopt;
      if (!parsed) {
        std::cerr << argv[0] << ": --queue needs an integer in [1, 2^20]\n";
        return 2;
      }
      options.queue_capacity = static_cast<std::size_t>(*parsed);
    } else if (arg == "--cache") {
      const char* value = next_value();
      const auto parsed =
          value ? common::parse_int_in(value, 1, 1 << 28) : std::nullopt;
      if (!parsed) {
        std::cerr << argv[0] << ": --cache needs an integer in [1, 2^28]\n";
        return 2;
      }
      options.cache_capacity = static_cast<std::size_t>(*parsed);
    } else if (arg == "--pin") {
      options.pin_workers = true;
    } else if (arg == "--store") {
      store_dir = path_value();
      if (store_dir.empty()) {
        std::cerr << argv[0] << ": --store needs a directory\n";
        return 2;
      }
    } else if (arg == "--stats-json") {
      stats_path = path_value();
      if (stats_path.empty()) {
        std::cerr << argv[0] << ": --stats-json needs an output path\n";
        return 2;
      }
    } else {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  std::shared_ptr<serve::ResultStore> store;
  if (!store_dir.empty()) {
    try {
      store = std::make_shared<serve::ResultStore>(store_dir);
    } catch (const std::exception& ex) {
      std::cerr << argv[0] << ": cannot open result store '" << store_dir
                << "': " << ex.what() << '\n';
      return 1;
    }
    options.store = store;
  }

  serve::Server server(std::move(options));
  g_server = &server;
  g_null_input = open("/dev/null", O_RDONLY | O_CLOEXEC);
  // No SA_RESTART: the signal must interrupt the reader's blocking read of
  // stdin, which then reads as end of input. With a restarted read an idle
  // daemon would drain only at EOF.
  struct sigaction drain_action {};
  drain_action.sa_handler = handle_drain_signal;
  sigemptyset(&drain_action.sa_mask);
  drain_action.sa_flags = 0;
  sigaction(SIGTERM, &drain_action, nullptr);
  sigaction(SIGINT, &drain_action, nullptr);

  std::cerr << "dmfb_serve " << kVersionString << ": serving on stdio\n";
  const std::uint64_t answered = server.serve(std::cin, std::cout);
  // Every answered record reaches the disk before the stats report it.
  if (store) store->flush();

  const sim::Session::Stats stats = server.session_stats();
  const std::string summary = stats_json(stats, answered);
  std::cerr << "dmfb_serve: " << summary << '\n';
  if (store) {
    const serve::ResultStore::Stats ss = store->stats();
    std::cerr << "store '" << store_dir << "': " << ss.hits << " hits, "
              << ss.misses << " misses, " << ss.writes << " writes, "
              << ss.corrupt_dropped << " corrupt dropped\n";
  }
  if (!stats_path.empty()) {
    std::ofstream stats_file(stats_path, std::ios::trunc);
    stats_file << summary << '\n';
    stats_file.flush();
    if (!stats_file) {
      std::cerr << argv[0] << ": cannot write " << stats_path << '\n';
      return 1;
    }
  }
  return 0;
}
