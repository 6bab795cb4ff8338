// dmfb_campaign: run a declarative scenario sweep over the Monte-Carlo
// yield stack and emit console / markdown / CSV / JSON-lines artifacts.
//
// Usage:
//   dmfb_campaign <spec-file | builtin:NAME> [options]
//   dmfb_campaign --list
//
// Options:
//   --threads N   override the spec's thread budget (0 = hardware)
//   --runs N      override the spec's runs-per-point
//   --seed S      override the spec's RNG seed (decimal or 0x-hex)
//   --out DIR     directory for CSV/JSON-lines artifacts (default ".");
//                 --out FORMAT:DIR (csv/jsonl) narrows the file artifacts
//                 to that one format — an unknown format is a hard error,
//                 not a directory name
//   --markdown    render the console table as markdown
//   --print-spec  echo the normalised spec and exit (no simulation)
//   --metrics P   write an obs metrics snapshot to P (JSON lines) plus a
//                 markdown summary next to it (.jsonl -> .md)
//   --trace P     record Chrome trace-event JSON (Perfetto-loadable) to P
//   --store DIR   durable result store (serve::ResultStore): points already
//                 stored load instead of recomputing, fresh points persist
//                 — kill the process mid-campaign, rerun with the same
//                 --store, and only uncomputed points execute, with
//                 artifacts byte-identical to an uninterrupted run
//
// File artifacts land at <out>/<name>.csv and <out>/<name>.jsonl when the
// spec's sink list requests them. Results are bit-identical for every
// --threads value — with or without --metrics/--trace, which observe the
// run but never steer it.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "common/parse.hpp"
#include "core/version.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "serve/result_store.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <spec-file | builtin:NAME> [options]\n"
      << "       " << argv0 << " --list\n"
      << "options:\n"
      << "  --threads N   override thread budget (0 = hardware concurrency)\n"
      << "  --runs N      override Monte-Carlo runs per grid point\n"
      << "  --seed S      override RNG seed (decimal or 0x-hex)\n"
      << "  --out DIR     artifact output directory (default: .)\n"
      << "  --out FMT:DIR emit only FMT file artifacts (csv or jsonl)\n"
      << "  --markdown    print the console table as markdown\n"
      << "  --print-spec  echo the normalised spec and exit\n"
      << "  --metrics P   write metrics JSON-lines to P (+ .md summary)\n"
      << "  --trace P     write Chrome trace-event JSON to P\n"
      << "  --store DIR   durable result store for checkpoint/resume\n";
  return 2;
}

std::string read_spec_source(const std::string& target, std::string& error) {
  constexpr std::string_view kBuiltinPrefix = "builtin:";
  if (target.starts_with(kBuiltinPrefix)) {
    const std::string_view name =
        std::string_view(target).substr(kBuiltinPrefix.size());
    const std::string_view text = dmfb::campaign::builtin_campaign(name);
    if (text.empty()) {
      error = "unknown builtin campaign '" + std::string(name) +
              "' (try --list)";
      return {};
    }
    return std::string(text);
  }
  std::ifstream file(target);
  if (!file.is_open()) {
    error = "cannot open spec file '" + target + "'";
    return {};
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmfb;
  using campaign::SinkKind;

  std::string target;
  campaign::OutArgument out{std::nullopt, "."};
  std::optional<std::int64_t> threads_override;
  std::optional<std::int64_t> runs_override;
  std::optional<std::uint64_t> seed_override;
  std::string metrics_path;
  std::string trace_path;
  std::string store_dir;
  bool markdown = false;
  bool print_spec = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // --metrics/--trace/--store accept both "--flag PATH" and "--flag=PATH".
    std::string inline_value;
    if (arg.starts_with("--metrics=") || arg.starts_with("--trace=") ||
        arg.starts_with("--store=")) {
      const auto equals = arg.find('=');
      inline_value = arg.substr(equals + 1);
      arg.resize(equals);
    }
    const auto path_value = [&]() -> std::string {
      if (!inline_value.empty()) return inline_value;
      const char* value = next_value();
      return value ? std::string(value) : std::string();
    };
    if (arg == "--list") {
      std::cout << "builtin campaigns:\n";
      for (const std::string_view name : campaign::builtin_campaign_names()) {
        std::cout << "  builtin:" << name << '\n';
      }
      return 0;
    } else if (arg == "--markdown") {
      markdown = true;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else if (arg == "--threads") {
      const char* value = next_value();
      threads_override =
          value ? common::parse_int_in(value, 0, 4096) : std::nullopt;
      if (!threads_override) {
        std::cerr << argv[0] << ": --threads needs an integer in [0, 4096]\n";
        return 2;
      }
    } else if (arg == "--runs") {
      const char* value = next_value();
      runs_override =
          value ? common::parse_int_in(value, 1, 100'000'000) : std::nullopt;
      if (!runs_override) {
        std::cerr << argv[0] << ": --runs needs an integer in [1, 1e8]\n";
        return 2;
      }
    } else if (arg == "--seed") {
      const char* value = next_value();
      seed_override = value ? common::parse_uint64(value) : std::nullopt;
      if (!seed_override) {
        std::cerr << argv[0] << ": --seed needs a uint64 (decimal or 0x-hex)\n";
        return 2;
      }
    } else if (arg == "--metrics") {
      metrics_path = path_value();
      if (metrics_path.empty()) {
        std::cerr << argv[0] << ": --metrics needs an output path\n";
        return 2;
      }
    } else if (arg == "--trace") {
      trace_path = path_value();
      if (trace_path.empty()) {
        std::cerr << argv[0] << ": --trace needs an output path\n";
        return 2;
      }
    } else if (arg == "--store") {
      store_dir = path_value();
      if (store_dir.empty()) {
        std::cerr << argv[0] << ": --store needs a directory\n";
        return 2;
      }
    } else if (arg == "--out") {
      const char* value = next_value();
      if (!value) {
        std::cerr << argv[0] << ": --out needs a directory\n";
        return 2;
      }
      // Strict parse, like the numeric options: an unknown FORMAT: prefix
      // is a diagnostic and a nonzero exit, never a silent directory.
      std::string out_error;
      const auto parsed_out = campaign::parse_out_argument(value, out_error);
      if (!parsed_out) {
        std::cerr << argv[0] << ": " << out_error << '\n';
        return 2;
      }
      out = *parsed_out;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << argv[0] << ": unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else if (target.empty()) {
      target = arg;
    } else {
      std::cerr << argv[0] << ": more than one spec given\n";
      return usage(argv[0]);
    }
  }
  if (target.empty()) return usage(argv[0]);

  std::string error;
  const std::string source = read_spec_source(target, error);
  if (!error.empty()) {
    std::cerr << argv[0] << ": " << error << '\n';
    return 2;
  }

  campaign::ParseResult parsed = campaign::parse_campaign_spec(source);
  if (!parsed.ok()) {
    std::cerr << argv[0] << ": invalid campaign spec '" << target << "':\n"
              << parsed.error_text();
    return 2;
  }
  campaign::CampaignSpec spec = std::move(*parsed.spec);
  if (threads_override) {
    spec.threads = static_cast<std::int32_t>(*threads_override);
  }
  if (runs_override) spec.runs = static_cast<std::int32_t>(*runs_override);
  if (seed_override) spec.seed = *seed_override;
  if (out.format) {
    // --out FORMAT:DIR pins the file artifacts to exactly that format
    // (whether or not the spec listed it); console sinks are unaffected.
    std::erase_if(spec.sinks, [](SinkKind kind) {
      return kind == SinkKind::kCsv || kind == SinkKind::kJsonl;
    });
    spec.sinks.push_back(*out.format);
  }

  if (print_spec) {
    std::cout << campaign::to_spec_text(spec);
    return 0;
  }

  campaign::CampaignRunner runner(std::move(spec));
  const campaign::CampaignSpec& active = runner.spec();

  std::shared_ptr<serve::ResultStore> store;
  if (!store_dir.empty()) {
    try {
      store = std::make_shared<serve::ResultStore>(store_dir);
    } catch (const std::exception& ex) {
      std::cerr << argv[0] << ": cannot open result store '" << store_dir
                << "': " << ex.what() << '\n';
      return 1;
    }
    runner.set_result_cache(store);
  }

  // Observability is opt-in and free when absent: the registry/recorder
  // are only constructed (and installed) when the flags ask for them, and
  // they observe the run without steering it — artifacts stay bit-identical.
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!metrics_path.empty()) {
    registry = std::make_unique<obs::Registry>();
    registry->install();
  }
  if (!trace_path.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
    recorder->install();
  }

  // Grid points are checked against their designs before any artifact file
  // opens: a rejected spec leaves an earlier run's artifacts untouched.
  try {
    runner.prepare();
  } catch (const std::exception& ex) {
    std::cerr << argv[0] << ": campaign '" << active.name
              << "' rejected: " << ex.what() << '\n';
    return 1;
  }

  std::vector<std::unique_ptr<campaign::ArtifactSink>> file_sinks;
  std::unique_ptr<campaign::ConsoleSink> console_text;
  std::unique_ptr<campaign::ConsoleSink> console_markdown;
  std::vector<std::string> artifact_paths;
  for (const SinkKind kind : active.sinks) {
    switch (kind) {
      case SinkKind::kConsole:
      case SinkKind::kMarkdown: {
        // --markdown upgrades the plain console sink; one sink per style,
        // so `sink = console, markdown` prints both renderings.
        auto& console =
            markdown || kind == SinkKind::kMarkdown ? console_markdown
                                                    : console_text;
        if (!console) {
          console = std::make_unique<campaign::ConsoleSink>(
              std::cout, markdown || kind == SinkKind::kMarkdown
                             ? campaign::ConsoleSink::Style::kMarkdown
                             : campaign::ConsoleSink::Style::kText);
          runner.add_sink(*console);
        }
        break;
      }
      case SinkKind::kCsv:
      case SinkKind::kJsonl: {
        std::error_code ec;
        std::filesystem::create_directories(out.dir, ec);  // best effort
        const std::string path = out.dir + "/" + active.name +
                                 (kind == SinkKind::kCsv ? ".csv" : ".jsonl");
        auto sink = campaign::make_file_sink(kind, path, error);
        if (!sink) {
          std::cerr << argv[0] << ": " << error << '\n';
          return 1;
        }
        artifact_paths.push_back(path);
        runner.add_sink(*file_sinks.emplace_back(std::move(sink)));
        break;
      }
    }
  }

  try {
    runner.run();
  } catch (const std::exception& ex) {
    std::cerr << argv[0] << ": campaign '" << active.name
              << "' failed: " << ex.what() << '\n';
    return 1;
  }
  // The store's writer counts its renames into the registry as they land:
  // flush before the metrics and the store line are read.
  if (store) store->flush();

  if (registry) {
    registry->uninstall();
    const obs::MetricsSink metrics_sink(metrics_path);
    if (!metrics_sink.write(registry->snapshot(), &error)) {
      std::cerr << argv[0] << ": " << error << '\n';
      return 1;
    }
    std::cerr << "metrics: " << metrics_sink.jsonl_path() << '\n'
              << "metrics: " << metrics_sink.markdown_path() << '\n';
  }
  if (recorder) {
    recorder->uninstall();
    std::ofstream trace_file(trace_path, std::ios::binary | std::ios::trunc);
    recorder->write(trace_file);
    trace_file.flush();
    if (!trace_file) {
      std::cerr << argv[0] << ": cannot write " << trace_path << '\n';
      return 1;
    }
    std::cerr << "trace: " << trace_path;
    if (recorder->dropped_events() > 0) {
      std::cerr << " (" << recorder->dropped_events()
                << " events dropped by the per-thread buffer cap)";
    }
    std::cerr << '\n';
  }

  std::cerr << "campaign '" << active.name << "': " << runner.stats().grid_points
            << " grid points, " << runner.stats().unique_points << " unique ("
            << runner.stats().cache_hits() << " deduped), dmfb "
            << kVersionString << '\n';
  if (store) {
    const serve::ResultStore::Stats store_stats = store->stats();
    std::cerr << "store '" << store_dir << "': " << store_stats.hits
              << " hits, " << store_stats.writes << " writes, "
              << store_stats.corrupt_dropped << " corrupt dropped\n";
  }
  for (const std::string& path : artifact_paths) {
    std::cerr << "artifact: " << path << '\n';
  }
  return 0;
}
