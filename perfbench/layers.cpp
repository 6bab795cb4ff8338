// perf_layers: the per-layer half of the perfbench benchmark.
//
// run.py times the real tools (dmfb_campaign, dmfb_serve) for the
// end-to-end metrics; this program calls each module's public functions
// in-process, on the same inputs a workload uses, for the per-layer ones.
//
//   perf_layers wire CAMPAIGN --seed S
//       Prints the builtin campaign's grid points as dmfb_serve wire
//       queries, one per line, in grid order.
//   perf_layers answer
//       Answers wire queries from stdin in-process through sim::Session,
//       one line each, exactly as dmfb_serve formats them. The reference
//       the daemon's answers are checked against.
//   perf_layers layers --workload W --seed S --work DIR --trace PATH
//                      --stream FILE
//       Times every layer on workload W's inputs and prints one JSON object
//       of per-layer figures. FILE is serve_mixed's query stream at seed S;
//       the serve layers run on serve_mixed's inputs for every workload.
//       Spans are recorded with obs::TraceRecorder, one per chunk of runs
//       (never per run), and written to PATH.
//
// Timing rules: fault sets are sampled before the timed loops, so repair is
// timed apart from injection; a loop that must apply and clear a fault set
// around the timed call has the apply+reset loop over the same runs
// subtracted.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "common/parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"
#include "sim/assay_workload.hpp"
#include "sim/chip_design.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/session.hpp"

namespace {

using namespace dmfb;
namespace fs = std::filesystem;

// Runs timed per kernel point and per operational point, and runs per span.
constexpr std::int32_t kKernelRuns = 2048;
constexpr std::int32_t kKernelChunk = 256;
constexpr std::int32_t kOpRuns = 96;
constexpr std::int32_t kOpChunk = 16;
// Kernel points taken from the serve stream's fresh queries.
constexpr std::size_t kServeKernelPoints = 96;
// Repetitions of the cheap per-call serve and store measurements.
constexpr int kCallReps = 40;
// Lines in the all-hit stream served in-process.
constexpr std::size_t kHitStreamLines = 20000;

// Results of timed loops land here so the optimiser keeps the work.
std::uint64_t g_sink = 0;

std::int64_t now_ns() { return obs::monotonic_ns(); }

/// Runs `body` inside one span and returns its wall time in ns.
template <typename Body>
std::int64_t timed(const char* span_name, Body&& body) {
  const obs::ScopedSpan span(span_name, "perfbench");
  const std::int64_t start = now_ns();
  body();
  return now_ns() - start;
}

/// Sum of nanoseconds over a number of calls.
struct Acc {
  double ns = 0.0;
  std::int64_t calls = 0;
  void add(double total_ns, std::int64_t n) {
    ns += total_ns;
    calls += n;
  }
  double per_call() const {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls);
  }
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// -- inputs -----------------------------------------------------------------

std::string campaign_text(const std::string& name) {
  std::string_view prefix = "builtin:";
  std::string_view bare = name;
  if (bare.starts_with(prefix)) bare.remove_prefix(prefix.size());
  return std::string(campaign::builtin_campaign(bare));
}

campaign::CampaignSpec load_spec(const std::string& name, std::uint64_t seed,
                                 std::int32_t threads) {
  const std::string text = campaign_text(name);
  if (text.empty()) throw std::runtime_error("unknown campaign " + name);
  campaign::ParseResult parsed = campaign::parse_campaign_spec(text);
  if (!parsed.ok()) throw std::runtime_error(parsed.error_text());
  campaign::CampaignSpec spec = std::move(*parsed.spec);
  spec.seed = seed;
  spec.threads = threads;
  return spec;
}

/// One grid point as a dmfb_serve wire query (no id: the line number is).
std::string wire_line(const campaign::CampaignPoint& point,
                      const campaign::CampaignSpec& spec) {
  std::string line = "{\"design\": \"";
  line += campaign::to_string(point.design);
  line += "\"";
  if (point.design != campaign::Design::kMultiplexed) {
    line += ", \"primaries\": " + std::to_string(point.min_primaries);
  }
  line += ", \"injector\": \"";
  line += campaign::to_string(point.injector);
  line += "\", \"param\": " + serve::json_double(point.param);
  line += ", \"runs\": " + std::to_string(spec.runs);
  line += ", \"seed\": " + std::to_string(spec.seed);
  line += ", \"policy\": \"";
  line += campaign::spec_token(point.policy);
  line += "\", \"engine\": \"";
  line += campaign::spec_token(point.engine);
  line += "\", \"pool\": \"";
  line += campaign::spec_token(point.pool);
  line += "\", \"workload\": \"";
  line += campaign::to_string(point.workload);
  line += "\", \"rng_version\": \"";
  line += campaign::spec_token(point.rng_version);
  line += "\"}";
  return line;
}

std::vector<std::string> campaign_wire_lines(const std::string& name,
                                             std::uint64_t seed) {
  const campaign::CampaignSpec spec = load_spec(name, seed, 1);
  std::vector<std::string> lines;
  for (const campaign::CampaignPoint& point : campaign::expand_grid(spec)) {
    lines.push_back(wire_line(point, spec));
  }
  return lines;
}

/// Shared designs (and the multiplexed workload), built once per key the
/// way dmfb_serve builds its sessions.
class Designs {
 public:
  using Key = std::pair<campaign::Design, std::int32_t>;

  static Key key_of(const serve::ServeRequest& request) {
    const bool multiplexed =
        request.design == campaign::Design::kMultiplexed;
    return {request.design, multiplexed ? 0 : request.min_primaries};
  }

  std::shared_ptr<const sim::ChipDesign> design(
      const serve::ServeRequest& request) {
    const Key key = key_of(request);
    if (key.first == campaign::Design::kMultiplexed) {
      return workload()->design_ptr();
    }
    auto& slot = designs_[key];
    if (!slot) {
      slot = sim::ChipDesign::make(
          campaign::build_design_array(key.first, key.second));
    }
    return slot;
  }

  std::shared_ptr<const sim::AssayWorkload> workload() {
    if (!workload_) workload_ = sim::AssayWorkload::multiplexed();
    return workload_;
  }

  std::unique_ptr<sim::Session> session(const serve::ServeRequest& request) {
    if (request.design == campaign::Design::kMultiplexed) {
      return std::make_unique<sim::Session>(workload());
    }
    return std::make_unique<sim::Session>(design(request));
  }

 private:
  std::map<Key, std::shared_ptr<const sim::ChipDesign>> designs_;
  std::shared_ptr<const sim::AssayWorkload> workload_;
};

struct Request {
  std::string line;
  serve::ServeRequest request;
  sim::YieldQuery query;
  std::shared_ptr<const sim::ChipDesign> design;
};

/// The answer's identity: design fingerprint plus query (query_key alone
/// does not name the design).
std::string result_key(const Request& request) {
  return sim::store_key(request.query, *request.design);
}

std::vector<Request> parse_lines(const std::vector<std::string>& lines,
                                 Designs& designs) {
  std::vector<Request> out;
  std::uint64_t number = 0;
  for (const std::string& line : lines) {
    serve::ParsedRequest parsed = serve::parse_request(line, ++number);
    if (!parsed.ok()) {
      throw std::runtime_error("bad query line " + std::to_string(number) +
                               ": " + parsed.error);
    }
    Request request;
    request.line = line;
    request.request = std::move(*parsed.request);
    request.query = serve::query_of(request.request);
    request.design = designs.design(request.request);
    out.push_back(std::move(request));
  }
  return out;
}

std::string answer_of(sim::Session& session, const serve::ServeRequest& req) {
  const sim::YieldQuery query = serve::query_of(req);
  if (req.workload == campaign::WorkloadKind::kAssay) {
    return serve::format_response(req, session.run_operational(query));
  }
  return serve::format_response(req, session.run(query));
}

/// An answer line without its leading id, for byte comparisons between
/// answers to the same query under different ids.
std::string strip_id(const std::string& answer) {
  const std::size_t comma = answer.find(',');
  return comma == std::string::npos ? answer : answer.substr(comma);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

// -- pre-sampled fault sets -------------------------------------------------

/// Fault cells of runs [0, runs) of a query, drawn with its own model and
/// draw contract.
struct FaultSets {
  std::vector<hex::CellIndex> cells;
  std::vector<std::size_t> offsets{0};

  void apply(std::int32_t run, sim::FaultState& state) const {
    const auto r = static_cast<std::size_t>(run);
    for (std::size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      state.set_faulty(cells[i]);
    }
  }
};

FaultSets presample(const sim::YieldQuery& query, sim::FaultState& state,
                    std::int32_t runs) {
  FaultSets sets;
  for (std::int32_t run = 0; run < runs; ++run) {
    if (query.rng_version == RngVersion::kV2) {
      CounterStream stream = sim::run_stream_v2(query.seed, run);
      sim::inject_v2(query.fault, state, stream);
    } else {
      Rng rng = sim::run_stream(query.seed, run);
      sim::inject(query.fault, state, rng);
    }
    const auto faulty = state.faulty_cells();
    sets.cells.insert(sets.cells.end(), faulty.begin(), faulty.end());
    sets.offsets.push_back(sets.cells.size());
    state.reset();
  }
  return sets;
}

// -- structural run kernel --------------------------------------------------

struct KernelTotals {
  Acc stream, inject_v1, inject_v2, inject_fixed, reset, repair_hk,
      repair_incremental;
};

/// Times the structural kernel's layers on one query's first runs. The
/// three injectors run at the query's own expected fault density, so they
/// compare like for like on the workload's designs.
void kernel_point(const Request& point, KernelTotals& totals) {
  const sim::YieldQuery& query = point.query;
  const sim::ChipDesign& design = *point.design;
  const std::int32_t runs = std::min(query.runs, kKernelRuns);
  sim::FaultState state(point.design);
  sim::FaultState incremental(point.design);
  const FaultSets faults = presample(query, state, runs);

  const double density = sim::expected_fault_fraction(query.fault, design);
  const sim::FaultModel bernoulli =
      sim::FaultModel::bernoulli(std::clamp(1.0 - density, 0.0, 1.0));
  const sim::FaultModel fixed = sim::FaultModel::fixed_count(
      static_cast<std::int32_t>(std::lround(density * design.cell_count())));
  const std::uint64_t seed = query.seed;

  for (std::int32_t lo = 0; lo < runs; lo += kKernelChunk) {
    const std::int32_t hi = std::min(runs, lo + kKernelChunk);
    const std::int64_t n = hi - lo;
    totals.stream.add(
        static_cast<double>(timed("common.stream", [&] {
          for (std::int32_t run = lo; run < hi; ++run) {
            g_sink ^= sim::run_stream(seed, run)();
          }
        })),
        n);
    totals.inject_v1.add(
        static_cast<double>(timed("sim.inject_v1", [&] {
          for (std::int32_t run = lo; run < hi; ++run) {
            Rng rng = sim::run_stream(seed, run);
            sim::inject(bernoulli, state, rng);
            state.reset();
          }
        })),
        n);
    totals.inject_v2.add(
        static_cast<double>(timed("sim.inject_v2", [&] {
          for (std::int32_t run = lo; run < hi; ++run) {
            CounterStream stream = sim::run_stream_v2(seed, run);
            sim::inject_v2(bernoulli, state, stream);
            state.reset();
          }
        })),
        n);
    totals.inject_fixed.add(
        static_cast<double>(timed("sim.inject_fixed", [&] {
          for (std::int32_t run = lo; run < hi; ++run) {
            Rng rng = sim::run_stream(seed, run);
            sim::inject(fixed, state, rng);
            state.reset();
          }
        })),
        n);
    const std::int64_t reset_ns = timed("sim.reset", [&] {
      for (std::int32_t run = lo; run < hi; ++run) {
        faults.apply(run, state);
        state.reset();
      }
    });
    totals.reset.add(static_cast<double>(reset_ns), n);
    const std::int64_t hk_ns = timed("graph.repair_hk", [&] {
      for (std::int32_t run = lo; run < hi; ++run) {
        faults.apply(run, state);
        g_sink += state.repairable(query.policy,
                                   graph::MatchingEngine::kHopcroftKarp,
                                   query.pool)
                      ? 1u
                      : 0u;
        state.reset();
      }
    });
    totals.repair_hk.add(static_cast<double>(hk_ns - reset_ns), n);
    const std::int64_t inc_ns = timed("sim.repair_incremental", [&] {
      for (std::int32_t run = lo; run < hi; ++run) {
        faults.apply(run, incremental);
        g_sink += incremental.repairable_incremental(query.policy, query.pool)
                      ? 1u
                      : 0u;
        incremental.reset();
      }
    });
    totals.repair_incremental.add(static_cast<double>(inc_ns - reset_ns), n);
  }
}

/// Counter pass (registry installed, untimed): the query's own injection
/// and the incremental repair path, over the same runs kernel_point times.
void count_point(const Request& point) {
  const sim::YieldQuery& query = point.query;
  sim::FaultState state(point.design);
  const std::int32_t runs = std::min(query.runs, kKernelRuns);
  for (std::int32_t run = 0; run < runs; ++run) {
    if (query.rng_version == RngVersion::kV2) {
      CounterStream stream = sim::run_stream_v2(query.seed, run);
      sim::inject_v2(query.fault, state, stream);
    } else {
      Rng rng = sim::run_stream(query.seed, run);
      sim::inject(query.fault, state, rng);
    }
    g_sink += state.repairable_incremental(query.policy, query.pool) ? 1u : 0u;
    state.reset();
  }
}

// -- operational kernel -----------------------------------------------------

/// OperationalState::evaluate on pre-sampled fault sets of one assay query.
Acc op_point(const Request& point,
             const std::shared_ptr<const sim::AssayWorkload>& workload) {
  const sim::YieldQuery& query = point.query;
  sim::OperationalState op(workload);
  const std::int32_t runs = std::min(query.runs, kOpRuns);
  const FaultSets faults = presample(query, op.faults(), runs);
  Acc eval;
  for (std::int32_t lo = 0; lo < runs; lo += kOpChunk) {
    const std::int32_t hi = std::min(runs, lo + kOpChunk);
    const std::int64_t reset_ns = timed("sim.op_reset", [&] {
      for (std::int32_t run = lo; run < hi; ++run) {
        faults.apply(run, op.faults());
        op.reset();
      }
    });
    const std::int64_t eval_ns = timed("sim.op_eval", [&] {
      for (std::int32_t run = lo; run < hi; ++run) {
        faults.apply(run, op.faults());
        g_sink += op.evaluate(query.policy, query.engine, query.pool)
                          .operational
                      ? 1u
                      : 0u;
        op.reset();
      }
    });
    eval.add(static_cast<double>(eval_ns - reset_ns), hi - lo);
  }
  return eval;
}

// -- campaign runner --------------------------------------------------------

/// Forwards to a sink and accumulates the time spent inside it.
class TimingSink final : public campaign::ArtifactSink {
 public:
  explicit TimingSink(campaign::ArtifactSink& inner) : inner_(inner) {}
  void begin(const std::vector<std::string>& headers,
             const std::string& title) override {
    const std::int64_t start = now_ns();
    inner_.begin(headers, title);
    ns_ += now_ns() - start;
  }
  void row(const std::vector<std::string>& cells) override {
    const std::int64_t start = now_ns();
    inner_.row(cells);
    ns_ += now_ns() - start;
  }
  void finish() override {
    const std::int64_t start = now_ns();
    inner_.finish();
    ns_ += now_ns() - start;
  }
  std::int64_t ns() const { return ns_; }

 private:
  campaign::ArtifactSink& inner_;
  std::int64_t ns_ = 0;
};

// -- JSON output ------------------------------------------------------------

class JsonOut {
 public:
  void number(const std::string& key, double value) {
    field(key) << serve::json_double(value);
  }
  void text(const std::string& key, const std::string& value) {
    std::ostream& out = field(key);
    out << '"';
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') {
        out << '\\' << ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        out << ' ';
      } else {
        out << ch;
      }
    }
    out << '"';
  }
  std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostream& field(const std::string& key) {
    if (!first_) body_ << ", ";
    first_ = false;
    body_ << '"' << key << "\": ";
    return body_;
  }
  std::ostringstream body_;
  bool first_ = true;
};

struct Checks {
  std::int64_t made = 0;
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    ++made;
    if (!ok) failures.push_back(what);
  }
};

/// Answers in submission order, each equal to the reference answer of its
/// query (ignoring the id), for the lines whose reference is known.
void check_answers(const std::vector<std::string>& answers,
                   const std::vector<std::string>& ids,
                   const std::vector<const std::string*>& reference,
                   const std::string& what, Checks& checks) {
  if (answers.size() != ids.size()) {
    checks.expect(false, what + ": " + std::to_string(answers.size()) +
                             " answers to " + std::to_string(ids.size()) +
                             " queries");
    return;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const std::string& answer = answers[i];
    const bool id_ok = answer.starts_with("{\"id\": " + ids[i] + ",");
    const bool error = answer.find("\"error\"") != std::string::npos;
    const bool same =
        reference[i] == nullptr || strip_id(answer) == strip_id(*reference[i]);
    if (!id_ok || error || !same) ++bad;
  }
  checks.expect(bad == 0, what + ": " + std::to_string(bad) + " bad answers");
}

// -- the layers subcommand --------------------------------------------------

struct LayerArgs {
  std::string workload;
  std::uint64_t seed = 0;
  std::string work_dir;
  std::string trace_path;
  std::string stream_path;
};

int run_layers(const LayerArgs& args) {
  const bool serve_workload = args.workload == "serve_mixed";
  const bool fig13 = args.workload == "fig13_assay";
  if (!serve_workload && !fig13 && args.workload != "fig9_v1") {
    std::cerr << "perf_layers: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // The campaign whose points are the workload's queries (serve_mixed's hit
  // share is the fig9 grid), and the campaign the runner and operational
  // layers run on: the workload's own, or fig13 for workloads that do not
  // exercise those layers.
  const std::string own_campaign =
      fig13 ? "fig13_operational" : std::string("fig9");
  const std::string runner_campaign =
      serve_workload ? "fig13_operational" : own_campaign;
  const std::int32_t runner_threads = args.workload == "fig9_v1" ? 1 : 2;
  const fs::path work(args.work_dir);
  fs::create_directories(work);

  JsonOut out;
  Checks checks;
  Designs designs;

  obs::TraceRecorder recorder;
  recorder.install();

  // Inputs: the workload's campaign grid as wire queries, and serve_mixed's
  // own: the fig9 grid its warm pass computes, and the generated stream.
  const std::vector<std::string> warm_lines =
      campaign_wire_lines(own_campaign, args.seed);
  const std::vector<Request> warm = parse_lines(warm_lines, designs);
  const std::vector<std::string> serve_warm_lines =
      fig13 ? campaign_wire_lines("fig9", args.seed) : warm_lines;
  const std::vector<Request> serve_warm =
      parse_lines(serve_warm_lines, designs);
  const std::vector<std::string> stream_lines = read_lines(args.stream_path);
  const std::vector<Request> stream = parse_lines(stream_lines, designs);
  std::set<std::string> warm_keys;
  for (const Request& request : serve_warm) {
    warm_keys.insert(result_key(request));
  }

  // Kernel points: the queries the workload computes.
  std::vector<const Request*> kernel_points;
  if (serve_workload) {
    for (const Request& request : stream) {
      if (kernel_points.size() >= kServeKernelPoints) break;
      if (!warm_keys.contains(result_key(request))) {
        kernel_points.push_back(&request);
      }
    }
  } else {
    for (const Request& request : warm) kernel_points.push_back(&request);
  }

  // -- structural kernel ---------------------------------------------------
  KernelTotals kernel;
  {
    const obs::ScopedSpan phase("perfbench.kernel", "perfbench");
    for (const Request* point : kernel_points) kernel_point(*point, kernel);
  }
  out.number("common.stream_ns", kernel.stream.per_call());
  out.number("sim.inject_v1_ns", kernel.inject_v1.per_call());
  out.number("sim.inject_v2_ns", kernel.inject_v2.per_call());
  out.number("sim.inject_fixed_ns", kernel.inject_fixed.per_call());
  out.number("sim.reset_ns", kernel.reset.per_call());
  out.number("graph.repair_hk_ns", kernel.repair_hk.per_call());
  out.number("sim.repair_incremental_ns",
             kernel.repair_incremental.per_call());
  {
    obs::Registry registry;
    registry.install();
    for (const Request* point : kernel_points) count_point(*point);
    registry.uninstall();
    const obs::Snapshot snap = registry.snapshot();
    const auto runs =
        static_cast<double>(std::max<std::int64_t>(
            1, snap.counter(obs::Metric::kInjectRuns)));
    out.number("fault.cell_trials_per_run",
               static_cast<double>(
                   snap.counter(obs::Metric::kInjectCellTrials)) /
                   runs);
    out.number("sim.faults_per_run",
               static_cast<double>(
                   snap.counter(obs::Metric::kInjectCellsFaulted)) /
                   runs);
    const std::int64_t rebuilds =
        snap.counter(obs::Metric::kIncFullRebuilds) +
        snap.counter(obs::Metric::kIncChurnBailouts);
    const std::int64_t repairs =
        rebuilds + snap.counter(obs::Metric::kIncDiffRepairs);
    out.number("sim.incremental_rebuild_frac",
               repairs == 0 ? 0.0
                            : static_cast<double>(rebuilds) /
                                  static_cast<double>(repairs));
  }

  // -- operational kernel --------------------------------------------------
  {
    const std::vector<Request> op_points = parse_lines(
        campaign_wire_lines("fig13_operational", args.seed), designs);
    const std::shared_ptr<const sim::AssayWorkload> workload =
        designs.workload();
    Acc eval;
    {
      const obs::ScopedSpan phase("perfbench.op", "perfbench");
      for (const Request& point : op_points) {
        const Acc acc = op_point(point, workload);
        eval.add(acc.ns, acc.calls);
      }
    }
    obs::Registry registry;
    registry.install();
    Acc eval_counted;
    for (const Request& point : op_points) {
      const Acc acc = op_point(point, workload);
      eval_counted.add(acc.ns, acc.calls);
    }
    registry.uninstall();
    const obs::Snapshot snap = registry.snapshot();
    const auto mean_us = [&](obs::Metric metric) {
      const obs::HistogramSnapshot& h = snap.histogram(metric);
      const auto runs = static_cast<double>(std::max<std::int64_t>(
          1, eval_counted.calls));
      return static_cast<double>(h.sum_ns) / runs / 1e3;
    };
    const double plan = mean_us(obs::Metric::kReconfigPlanNs);
    const double schedule = mean_us(obs::Metric::kAssayScheduleNs);
    const double route = mean_us(obs::Metric::kRouteNs);
    out.number("sim.op_eval_us", eval.per_call() / 1e3);
    out.number("reconfig.plan_us", plan);
    out.number("assay.schedule_us", schedule);
    out.number("fluidics.route_us", route);
    out.number("sim.op_other_us",
               eval_counted.per_call() / 1e3 - plan - schedule - route);
  }

  // -- set-up layers -------------------------------------------------------
  {
    std::set<Designs::Key> keys;
    std::vector<const serve::ServeRequest*> unique;
    const std::vector<Request> none;
    for (const std::vector<Request>* list :
         std::initializer_list<const std::vector<Request>*>{
             &warm, serve_workload ? &stream : &none}) {
      for (const Request& request : *list) {
        if (keys.insert(Designs::key_of(request.request)).second) {
          unique.push_back(&request.request);
        }
      }
    }
    Acc build;
    for (int rep = 0; rep < 3; ++rep) {
      for (const serve::ServeRequest* request : unique) {
        const std::int64_t ns = timed("sim.design_build", [&] {
          if (request->design == campaign::Design::kMultiplexed) {
            g_sink += sim::AssayWorkload::multiplexed()->modules().size();
          } else {
            g_sink += static_cast<std::uint64_t>(
                sim::ChipDesign::make(
                    campaign::build_design_array(request->design,
                                                 request->min_primaries))
                    ->cell_count());
          }
        });
        build.add(static_cast<double>(ns), 1);
      }
    }
    out.number("sim.design_build_ms", build.per_call() / 1e6);

    const std::string text = campaign_text(own_campaign);
    Acc parse;
    for (int rep = 0; rep < 50; ++rep) {
      const std::int64_t ns = timed("campaign.parse_expand", [&] {
        campaign::ParseResult parsed = campaign::parse_campaign_spec(text);
        g_sink += campaign::expand_grid(*parsed.spec).size();
      });
      parse.add(static_cast<double>(ns), 1);
    }
    out.number("campaign.parse_expand_ms", parse.per_call() / 1e6);
  }

  // -- campaign runner -----------------------------------------------------
  {
    campaign::CampaignSpec spec =
        load_spec(runner_campaign, args.seed, runner_threads);
    const std::string csv_path = (work / (spec.name + ".csv")).string();
    std::string error;
    std::unique_ptr<campaign::ArtifactSink> csv =
        campaign::make_file_sink(campaign::SinkKind::kCsv, csv_path, error);
    if (!csv) throw std::runtime_error(error);
    std::ostringstream console_text;
    campaign::ConsoleSink console(console_text,
                                  campaign::ConsoleSink::Style::kText);
    TimingSink timed_console(console);
    TimingSink timed_csv(*csv);
    campaign::CampaignRunner runner(std::move(spec));
    runner.add_sink(timed_console);
    runner.add_sink(timed_csv);
    obs::Registry registry;
    registry.install();
    {
      const obs::ScopedSpan phase("perfbench.campaign", "perfbench");
      runner.run();
    }
    registry.uninstall();
    const obs::Snapshot snap = registry.snapshot();
    const double busy = static_cast<double>(
        snap.histogram(obs::Metric::kCampaignWorkerBusyNs).sum_ns);
    const double idle = static_cast<double>(
        snap.histogram(obs::Metric::kCampaignWorkerIdleNs).sum_ns);
    out.number("campaign.worker_idle_frac",
               busy + idle > 0 ? idle / (busy + idle) : 0.0);
    out.number("io.sink_ms",
               static_cast<double>(timed_console.ns() + timed_csv.ns()) / 1e6);
    out.text("campaign_csv", csv_path);
  }

  // -- serve layers --------------------------------------------------------
  // On serve_mixed's inputs whatever the workload: the fig9 grid warms the
  // store, then the stream is replayed over it.
  {
    auto store = std::make_shared<serve::ResultStore>(work / "store");
    serve::ServerOptions options;
    // One worker: with two, a saturated in-process queue left a worker
    // parked in MpmcQueue::pop after close() in about one run in fifteen
    // (serve() then never returns). The daemon workload keeps two.
    options.threads = 1;
    options.store = store;
    serve::Server server(options);

    // Warm pass: computes every fig9 point and persists it to the store.
    std::vector<std::string> warm_answers;
    {
      const obs::ScopedSpan phase("perfbench.warm", "perfbench");
      std::istringstream in(join_lines(serve_warm_lines));
      std::ostringstream answers;
      server.serve(in, answers);
      warm_answers = split_lines(answers.str());
    }
    {
      std::vector<std::string> ids;
      std::vector<const std::string*> none(serve_warm_lines.size(), nullptr);
      for (std::size_t i = 0; i < serve_warm_lines.size(); ++i) {
        ids.push_back(std::to_string(i + 1));
      }
      check_answers(warm_answers, ids, none, "warm pass", checks);
    }
    std::map<std::string, const std::string*> reference;
    for (std::size_t i = 0; i < serve_warm.size() && i < warm_answers.size();
         ++i) {
      reference[result_key(serve_warm[i])] = &warm_answers[i];
    }

    // Per-call layers: protocol parse over the stream; format, the
    // session's in-memory hit, and the store's read and write paths over
    // the warm queries.
    Acc parse, format, mem_hit, load_hit, load_miss, write;
    {
      const obs::ScopedSpan phase("perfbench.serve_calls", "perfbench");
      std::uint64_t number = 0;
      while (parse.calls < 20000) {
        for (const std::string& line : stream_lines) {
          const std::int64_t start = now_ns();
          const serve::ParsedRequest parsed =
              serve::parse_request(line, ++number);
          parse.add(static_cast<double>(now_ns() - start), 1);
          g_sink += parsed.ok() ? 1u : 0u;
        }
      }
      auto write_store =
          std::make_shared<serve::ResultStore>(work / "store_writes");
      std::map<Designs::Key, std::unique_ptr<sim::Session>> sessions;
      std::size_t line_index = 0;
      for (const Request& request : serve_warm) {
        ++line_index;
        auto& session = sessions[Designs::key_of(request.request)];
        if (!session) {
          session = designs.session(request.request);
          session->attach_result_cache(store);
        }
        // First call loads from the store; later calls hit memory.
        const std::string answer = answer_of(*session, request.request);
        const std::string* expected = reference[result_key(request)];
        checks.expect(expected != nullptr && answer == *expected,
                      "store-loaded answer differs from computed answer "
                      "on warm line " +
                          std::to_string(line_index));
        for (int rep = 0; rep < kCallReps; ++rep) {
          std::int64_t start = now_ns();
          const sim::YieldEstimate est = session->run(request.query);
          mem_hit.add(static_cast<double>(now_ns() - start), 1);
          start = now_ns();
          const std::string line = serve::format_response(request.request, est);
          format.add(static_cast<double>(now_ns() - start), 1);
          g_sink += line.size();
        }
        const std::string key = result_key(request);
        const std::string payload = store->load(key).value_or("");
        checks.expect(!payload.empty(), "warm query missing from the store");
        for (int rep = 0; rep < kCallReps; ++rep) {
          std::int64_t start = now_ns();
          g_sink += store->load(key).has_value() ? 1u : 0u;
          load_hit.add(static_cast<double>(now_ns() - start), 1);
          start = now_ns();
          g_sink += store->load(key + "|absent").has_value() ? 1u : 0u;
          load_miss.add(static_cast<double>(now_ns() - start), 1);
        }
        for (int rep = 0; rep < kCallReps / 4; ++rep) {
          const std::int64_t start = now_ns();
          write_store->store(key + "|" + std::to_string(rep), payload);
          write.add(static_cast<double>(now_ns() - start), 1);
        }
      }
    }
    out.number("serve.parse_us", parse.per_call() / 1e3);
    out.number("serve.format_us", format.per_call() / 1e3);
    out.number("serve.cache_hit_us", mem_hit.per_call() / 1e3);
    out.number("serve.store_load_hit_us", load_hit.per_call() / 1e3);
    out.number("serve.store_load_miss_us", load_miss.per_call() / 1e3);
    out.number("serve.store_write_us", write.per_call() / 1e3);

    // All-hit stream through the warm server: protocol, queue, reorder
    // buffer and session cache with no compute behind them.
    {
      std::vector<std::string> hit_lines;
      std::vector<std::string> ids;
      std::vector<const std::string*> expected;
      while (hit_lines.size() < kHitStreamLines) {
        for (std::size_t i = 0; i < serve_warm_lines.size(); ++i) {
          hit_lines.push_back(serve_warm_lines[i]);
          ids.push_back(std::to_string(hit_lines.size()));
          expected.push_back(i < warm_answers.size() ? &warm_answers[i]
                                                     : nullptr);
        }
      }
      std::istringstream in(join_lines(hit_lines));
      std::ostringstream answers;
      const std::int64_t ns = timed("perfbench.hit_stream", [&] {
        server.serve(in, answers);
      });
      out.number("serve.inproc_hit_qps",
                 static_cast<double>(hit_lines.size()) /
                     (static_cast<double>(ns) / 1e9));
      check_answers(split_lines(answers.str()), ids, expected,
                    "in-process hit stream", checks);
    }

    // The generated stream replayed unpaced through a fresh server over the
    // warm store (first touch loads, later touches hit).
    {
      serve::Server replay(options);
      std::istringstream in(join_lines(stream_lines));
      std::ostringstream answers;
      {
        const obs::ScopedSpan phase("perfbench.replay", "perfbench");
        replay.serve(in, answers);
      }
      std::vector<std::string> ids;
      std::vector<const std::string*> expected;
      for (const Request& request : stream) {
        ids.push_back(request.request.id);
        const auto it = reference.find(result_key(request));
        expected.push_back(it == reference.end() ? nullptr : it->second);
      }
      check_answers(split_lines(answers.str()), ids, expected,
                    "in-process stream replay", checks);
      const sim::Session::Stats stats = replay.session_stats();
      const auto queries =
          static_cast<double>(std::max<std::size_t>(1, stats.queries));
      out.number("serve.mem_hit_frac",
                 static_cast<double>(stats.cache_hits()) / queries);
      out.number("serve.store_hit_frac",
                 static_cast<double>(stats.store_hits) / queries);
      out.number("serve.computed_frac",
                 static_cast<double>(stats.computed) / queries);
    }
  }

  // -- tracing overhead ----------------------------------------------------
  // The same kernel chunk loops with the recorder installed and not,
  // alternated; the relative difference of their medians.
  {
    const Request& probe = *kernel_points.front();
    std::vector<double> on, off;
    for (int rep = 0; rep < 7; ++rep) {
      for (const bool traced : {true, false}) {
        if (traced) {
          recorder.install();
        } else {
          recorder.uninstall();
        }
        KernelTotals scratch;
        const std::int64_t start = now_ns();
        kernel_point(probe, scratch);
        (traced ? on : off).push_back(static_cast<double>(now_ns() - start));
      }
    }
    out.number("trace.overhead_frac", median(on) / median(off) - 1.0);
  }

  recorder.uninstall();
  {
    std::ofstream trace_file(args.trace_path,
                             std::ios::binary | std::ios::trunc);
    recorder.write(trace_file);
    trace_file.flush();
    checks.expect(static_cast<bool>(trace_file),
                  "cannot write " + args.trace_path);
  }
  {
    std::ifstream in(args.trace_path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    checks.expect(obs::validate_trace_json(text.str(), &error),
                  "trace fails obs::validate_trace_json: " + error);
    checks.expect(recorder.dropped_events() == 0, "trace dropped events");
  }

  out.text("trace", args.trace_path);
  out.number("checks_made", static_cast<double>(checks.made));
  out.number("checks_failed", static_cast<double>(checks.failures.size()));
  std::string messages;
  for (const std::string& failure : checks.failures) {
    messages += (messages.empty() ? "" : "; ") + failure;
  }
  out.text("check_messages", messages);
  out.number("sink", static_cast<double>(g_sink % 1000));
  std::cout << out.str() << '\n';
  return 0;
}

// -- the answer and wire subcommands ----------------------------------------

int run_answer() {
  Designs designs;
  std::map<Designs::Key, std::unique_ptr<sim::Session>> sessions;
  std::string line;
  std::uint64_t number = 0;
  while (std::getline(std::cin, line)) {
    serve::ParsedRequest parsed = serve::parse_request(line, ++number);
    if (!parsed.ok()) {
      std::cout << serve::format_error(std::to_string(number), parsed.error)
                << '\n';
      continue;
    }
    const serve::ServeRequest& request = *parsed.request;
    auto& session = sessions[Designs::key_of(request)];
    if (!session) session = designs.session(request);
    std::cout << answer_of(*session, request) << '\n';
  }
  return 0;
}

int usage() {
  std::cerr << "usage: perf_layers wire CAMPAIGN --seed S\n"
               "       perf_layers answer < queries.jsonl\n"
               "       perf_layers layers --workload W --seed S --work DIR "
               "--trace PATH --stream FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  LayerArgs args;
  std::string campaign_name;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&](std::string& into) {
      if (value == nullptr) return false;
      into = value;
      ++i;
      return true;
    };
    bool ok = true;
    if (arg == "--seed") {
      const std::optional<std::uint64_t> seed =
          value ? common::parse_uint64(value) : std::nullopt;
      ok = seed.has_value();
      if (ok) {
        args.seed = *seed;
        ++i;
      }
    } else if (arg == "--workload") {
      ok = take(args.workload);
    } else if (arg == "--work") {
      ok = take(args.work_dir);
    } else if (arg == "--trace") {
      ok = take(args.trace_path);
    } else if (arg == "--stream") {
      ok = take(args.stream_path);
    } else if (!arg.starts_with("--") && campaign_name.empty()) {
      campaign_name = arg;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }
  try {
    if (command == "wire" && !campaign_name.empty()) {
      for (const std::string& line :
           campaign_wire_lines(campaign_name, args.seed)) {
        std::cout << line << '\n';
      }
      return 0;
    }
    if (command == "answer") return run_answer();
    if (command == "layers" && !args.workload.empty() &&
        !args.work_dir.empty() && !args.trace_path.empty() &&
        !args.stream_path.empty()) {
      return run_layers(args);
    }
  } catch (const std::exception& error) {
    std::cerr << "perf_layers: " << error.what() << '\n';
    return 1;
  }
  return usage();
}
