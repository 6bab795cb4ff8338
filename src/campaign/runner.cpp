#include "campaign/runner.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "biochip/redundancy.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "hexgrid/region.hpp"
#include "io/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/session.hpp"
#include "yield/analytic.hpp"

namespace dmfb::campaign {

biochip::HexArray build_design_array(Design design,
                                     std::int32_t min_primaries) {
  switch (design) {
    case Design::kNone:
      return biochip::make_plain_primary_array(min_primaries);
    case Design::kDtmb1_6:
      return biochip::make_dtmb_array_with_primaries(
          biochip::DtmbKind::kDtmb1_6, min_primaries);
    case Design::kDtmb2_6:
      return biochip::make_dtmb_array_with_primaries(
          biochip::DtmbKind::kDtmb2_6, min_primaries);
    case Design::kDtmb2_6B:
      return biochip::make_dtmb_array_with_primaries(
          biochip::DtmbKind::kDtmb2_6B, min_primaries);
    case Design::kDtmb3_6:
      return biochip::make_dtmb_array_with_primaries(
          biochip::DtmbKind::kDtmb3_6, min_primaries);
    case Design::kDtmb4_4:
      return biochip::make_dtmb_array_with_primaries(
          biochip::DtmbKind::kDtmb4_4, min_primaries);
    case Design::kMultiplexed:
      return assay::make_multiplexed_chip().array;
  }
  DMFB_ASSERT(false);
  return assay::make_multiplexed_chip().array;  // unreachable
}

std::unique_ptr<sim::Session> open_session(
    Design design, std::int32_t min_primaries,
    std::shared_ptr<sim::ResultCache> store) {
  std::unique_ptr<sim::Session> session =
      design == Design::kMultiplexed
          ? std::make_unique<sim::Session>(sim::AssayWorkload::multiplexed())
          : std::make_unique<sim::Session>(
                build_design_array(design, min_primaries));
  if (store) session->attach_result_cache(std::move(store));
  return session;
}

sim::YieldQuery query_of(const CampaignPoint& point, const CampaignSpec& spec,
                         std::int32_t inner_threads) {
  sim::YieldQuery query;
  if (point.injector == InjectorKind::kMixture) {
    std::vector<sim::FaultModel> parts;
    parts.reserve(point.components.size());
    for (const MixtureComponent& component : point.components) {
      parts.push_back(sim::FaultModel::concrete(component.kind,
                                                component.param,
                                                point.cluster));
    }
    query.fault = sim::FaultModel::mixture(std::move(parts));
  } else {
    query.fault =
        sim::FaultModel::concrete(point.injector, point.param, point.cluster);
  }
  query.workload = point.workload;
  query.runs = spec.runs;
  query.seed = spec.seed;
  query.threads = inner_threads;
  query.rng_version = point.rng_version;
  query.policy = point.policy;
  query.pool = point.pool;
  return query;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {}

void CampaignRunner::add_sink(ArtifactSink& sink) { sinks_.push_back(&sink); }

void CampaignRunner::set_result_cache(std::shared_ptr<sim::ResultCache> cache) {
  result_cache_ = std::move(cache);
}

std::vector<std::string> CampaignRunner::header() const {
  std::vector<std::string> columns = {
      "campaign", "design", "primaries", "total_cells",
      param_name(spec_.sweep_kind()),
      "policy",   "engine", "pool",      "runs",        "seed",
      "yield",    "ci_lo",  "ci_hi",     "successes",   "rr",
      "effective_yield"};
  if (spec_.workload == WorkloadKind::kAssay) {
    // "yield" stays the structural (repairability) leg; the operational
    // (assay-completes) leg and its slowdown statistics ride alongside.
    for (const char* column :
         {"op_yield", "op_ci_lo", "op_ci_hi", "op_successes",
          "mean_slowdown", "worst_slowdown"}) {
      columns.emplace_back(column);
    }
  }
  return columns;
}

std::vector<std::string> CampaignRunner::format_row(
    const PointResult& result) const {
  const CampaignPoint& point = result.point;
  const std::string param =
      point.sweep_kind == InjectorKind::kFixedCount
          ? std::to_string(static_cast<std::int32_t>(point.param))
          : io::format_double(point.param, 4);
  std::vector<std::string> cells = {
      spec_.name,
      to_string(point.design),
      std::to_string(result.primaries),
      std::to_string(result.total_cells),
      param,
      spec_token(point.policy),
      spec_token(point.engine),
      spec_token(point.pool),
      std::to_string(spec_.runs),
      std::to_string(spec_.seed),
      io::format_double(result.estimate.value, 4),
      io::format_double(result.estimate.ci95.lo, 4),
      io::format_double(result.estimate.ci95.hi, 4),
      std::to_string(result.estimate.successes),
      io::format_double(result.redundancy_ratio, 4),
      io::format_double(result.effective_yield, 4)};
  if (spec_.workload == WorkloadKind::kAssay) {
    const sim::OperationalEstimate& op = result.operational;
    cells.push_back(io::format_double(op.operational.value, 4));
    cells.push_back(io::format_double(op.operational.ci95.lo, 4));
    cells.push_back(io::format_double(op.operational.ci95.hi, 4));
    cells.push_back(std::to_string(op.operational.successes));
    cells.push_back(io::format_double(op.mean_slowdown, 4));
    cells.push_back(io::format_double(op.worst_slowdown, 4));
  }
  return cells;
}

std::string CampaignRunner::title() const {
  std::ostringstream out;
  out << "campaign '" << spec_.name << "' - " << spec_.runs
      << " runs/point, seed 0x" << std::hex << spec_.seed << std::dec
      << ", grid " << stats_.grid_points << " points ("
      << stats_.unique_points << " unique)";
  return out.str();
}

void CampaignRunner::prepare() {
  obs::ScopedSpan span("campaign.prepare", "campaign");
  points_ = expand_grid(spec_);
  sessions_.clear();

  // -- shared sessions, one per (design, size) -------------------------------
  // Designs are snapshotted once behind shared immutable ChipDesigns; every
  // worker reads the same snapshot (no per-thread array clones). The
  // sessions' query caches do the duplicate-point dedupe: identical points
  // resolve to identical query keys, so concurrent duplicates wait for the
  // first computation instead of re-running it.
  for (const CampaignPoint& point : points_) {
    auto& session = sessions_[{point.design, point.min_primaries}];
    if (!session) {
      session = open_session(point.design, point.min_primaries, result_cache_);
    }
    const std::int32_t cells = session->design().cell_count();
    const auto check_count = [&](InjectorKind kind, double param) {
      if (kind == InjectorKind::kFixedCount &&
          static_cast<std::int32_t>(param) > cells) {
        throw ContractViolation(
            "fixed_count param m = " +
            std::to_string(static_cast<std::int32_t>(param)) +
            " exceeds the design's cell count (" + std::to_string(cells) +
            " cells on design " + to_string(point.design) + ")");
      }
    };
    check_count(point.injector, point.param);
    for (const MixtureComponent& component : point.components) {
      check_count(component.kind, component.param);
    }
  }
  prepared_ = true;
}

std::vector<PointResult> CampaignRunner::run() {
  obs::ScopedSpan run_span("campaign.run", "campaign");
  if (!prepared_) prepare();
  prepared_ = false;
  const std::vector<CampaignPoint> points = std::move(points_);
  const std::map<SessionKey, std::unique_ptr<sim::Session>> sessions =
      std::move(sessions_);
  stats_.grid_points = points.size();

  // -- jobs: sweeps largest first, then duplicates ---------------------------
  // The unique points of a session whose queries share a sim::sweep_key
  // (they differ only in p) form one job, computed by one Session::run_sweep
  // pass; every other unique point is a job of its own. Jobs run largest
  // first (cells x runs x points) so the last ones to finish are short.
  // Duplicates resolve through the session cache; scheduling them after
  // every distinct computation keeps workers on fresh work instead of
  // parked on an in-flight duplicate's future. The worker count is sized to
  // the number of distinct jobs so a duplicate-heavy grid still gets deep
  // inner parallelism.
  struct Job {
    std::vector<std::size_t> points;
    std::int64_t cost = 0;  ///< cells x runs x points
  };
  std::vector<Job> jobs;
  std::vector<Job> duplicates;
  {
    std::unordered_map<std::string, char> seen;
    std::map<std::pair<SessionKey, std::string>, std::size_t> sweeps;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const sim::YieldQuery query = query_of(points[i], spec_, 1);
      const std::string key = std::string(to_string(points[i].design)) +
                              '/' + std::to_string(points[i].min_primaries) +
                              '|' + sim::query_key(query);
      if (!seen.emplace(key, 1).second) {
        duplicates.push_back({{i}, 0});
        continue;
      }
      const SessionKey session = {points[i].design, points[i].min_primaries};
      // A point with no sweep_key is keyed by its index, which no sweep_key
      // (a '|'-joined query_key) can equal.
      std::string sweep = sim::sweep_key(query);
      if (sweep.empty()) sweep = std::to_string(i);
      const std::size_t slot =
          sweeps.try_emplace({session, std::move(sweep)}, jobs.size())
              .first->second;
      if (slot == jobs.size()) jobs.emplace_back();
      jobs[slot].points.push_back(i);
      jobs[slot].cost += std::int64_t{spec_.runs} *
                         sessions.at(session)->design().cell_count();
    }
    std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
      return a.cost > b.cost;
    });
  }
  const auto unique_jobs = static_cast<std::int32_t>(jobs.size());
  jobs.insert(jobs.end(), duplicates.begin(), duplicates.end());
  const std::int32_t budget = common::resolve_worker_threads(spec_.threads);
  const std::int32_t workers =
      std::max(1, std::min(budget, std::max(unique_jobs, 1)));
  const std::int32_t inner_threads = std::max(1, budget / workers);

  std::vector<sim::YieldEstimate> estimates(points.size());
  std::vector<sim::OperationalEstimate> operationals(points.size());
  // Per-worker busy time (summed over its jobs) and span from its first
  // job's start to its last job's end; idle is span minus busy. Read only
  // when enabled, so the disabled default never reads the clock here.
  const bool measuring = obs::enabled();
  std::vector<std::int64_t> busy_ns(static_cast<std::size_t>(workers), 0);
  std::vector<std::int64_t> first_ns(static_cast<std::size_t>(workers), -1);
  std::vector<std::int64_t> last_ns(static_cast<std::size_t>(workers), 0);
  common::deal_items(
      workers, static_cast<std::int64_t>(jobs.size()),
      [&](std::int32_t worker, std::int64_t slot) {
        const auto w = static_cast<std::size_t>(worker);
        if (measuring && first_ns[w] < 0) first_ns[w] = obs::monotonic_ns();
        const std::vector<std::size_t>& members =
            jobs[static_cast<std::size_t>(slot)].points;
        const CampaignPoint& point = points[members.front()];
        sim::Session& session =
            *sessions.at({point.design, point.min_primaries});
        obs::ScopedSpan span("campaign.point", "campaign");
        if (span.active()) {
          span.set_args(std::string("{\"design\":\"") +
                        to_string(point.design) + "\",\"param\":" +
                        io::format_double(point.param, 4) + ",\"points\":" +
                        std::to_string(members.size()) + "}");
        }
        const std::int64_t point_start = measuring ? obs::monotonic_ns() : 0;
        if (point.workload == WorkloadKind::kAssay) {
          const std::size_t i = members.front();  // never part of a sweep
          operationals[i] =
              session.run_operational(query_of(point, spec_, inner_threads));
          // The structural leg keeps the "yield" column comparable with
          // structural campaigns over the same grid.
          estimates[i] = operationals[i].structural;
        } else {
          std::vector<sim::YieldQuery> queries;
          for (const std::size_t i : members) {
            queries.push_back(query_of(points[i], spec_, inner_threads));
          }
          const std::vector<sim::YieldEstimate> answers =
              session.run_sweep(queries);
          for (std::size_t k = 0; k < members.size(); ++k) {
            estimates[members[k]] = answers[k];
          }
        }
        if (measuring) {
          last_ns[w] = obs::monotonic_ns();
          busy_ns[w] += last_ns[w] - point_start;
          obs::record_duration(obs::Metric::kCampaignPointNs,
                               last_ns[w] - point_start);
        }
      });
  if (measuring) {
    for (std::size_t w = 0; w < busy_ns.size(); ++w) {
      const std::int64_t span_ns =
          first_ns[w] < 0 ? 0 : last_ns[w] - first_ns[w];
      obs::record_duration(obs::Metric::kCampaignWorkerBusyNs, busy_ns[w]);
      obs::record_duration(obs::Metric::kCampaignWorkerIdleNs,
                           std::max<std::int64_t>(0, span_ns - busy_ns[w]));
    }
  }

  stats_.unique_points = 0;
  stats_.store_hits = 0;
  for (const auto& [key, session] : sessions) {
    const sim::Session::Stats session_stats = session->stats();
    stats_.unique_points += session_stats.computed;
    stats_.store_hits += session_stats.store_hits;
  }
  if (obs::enabled()) {
    const auto grid = static_cast<std::int64_t>(stats_.grid_points);
    const auto unique = static_cast<std::int64_t>(stats_.unique_points);
    const auto stored = static_cast<std::int64_t>(stats_.store_hits);
    obs::count(obs::Metric::kCampaignGridPoints, grid);
    obs::count(obs::Metric::kCampaignUniquePoints, unique);
    obs::count(obs::Metric::kCampaignDedupedPoints, grid - unique - stored);
    obs::count(obs::Metric::kCampaignOuterWorkers, workers);
    obs::count(obs::Metric::kCampaignInnerThreads, inner_threads);
  }

  // -- fan results back out to grid order and stream to sinks ----------------
  std::vector<PointResult> results;
  results.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CampaignPoint& point = points[i];
    const biochip::HexArray& prototype =
        sessions.at({point.design, point.min_primaries})->design().array();
    PointResult result;
    result.point = point;
    result.primaries = prototype.primary_count();
    result.total_cells = prototype.cell_count();
    result.redundancy_ratio =
        point.design == Design::kNone
            ? 0.0
            : biochip::measured_redundancy_ratio(prototype);
    result.estimate = estimates[i];
    result.effective_yield = yield::effective_yield(result.estimate.value,
                                                    result.redundancy_ratio);
    result.operational = operationals[i];
    results.push_back(std::move(result));
  }

  const std::vector<std::string> headers = header();
  const std::string heading = title();
  for (ArtifactSink* sink : sinks_) sink->begin(headers, heading);
  for (const PointResult& result : results) {
    const std::vector<std::string> cells = format_row(result);
    for (ArtifactSink* sink : sinks_) sink->row(cells);
  }
  for (ArtifactSink* sink : sinks_) sink->finish();
  return results;
}

}  // namespace dmfb::campaign
