// CampaignRunner: executes an expanded sweep grid on sim::Session yield
// engines and streams result rows to the attached artifact sinks.
//
// Scheduling: the thread budget (spec.threads; 0 = hardware concurrency) is
// split into point-level workers times inner Monte-Carlo threads, so a
// campaign is parallel both across grid points and within a point. Results
// are bit-identical for every thread count: each run draws from its own
// (seed, run)-derived Rng stream and rows are emitted in canonical grid
// order regardless of completion order.
//
// A grid point becomes work as a dmfb_serve wire request does: open_session
// opens its (design, size) session and query_of builds its sim::YieldQuery.
// Duplicate grid points (equal design, size and sim::query_key) are computed
// once: all points of one (design, size) share a sim::Session over one
// immutable ChipDesign snapshot, and the session's query cache serves every
// duplicate (concurrent duplicates wait for the first computation instead
// of re-running it).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/grid.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "sim/session.hpp"

namespace dmfb::campaign {

/// Builds the chip array a (design, min_primaries) point runs on; the
/// multiplexed chip ignores min_primaries.
biochip::HexArray build_design_array(Design design,
                                     std::int32_t min_primaries);

/// Opens the session of a (design, min_primaries) pair for the runner and
/// dmfb_serve alike, so both key one geometry. The multiplexed chip
/// (min_primaries ignored) is workload-backed, so its session answers
/// structural and assay queries. A non-null `store` becomes its result cache.
std::unique_ptr<sim::Session> open_session(
    Design design, std::int32_t min_primaries,
    std::shared_ptr<sim::ResultCache> store);

/// A grid point's session query under the spec's run knobs; its fault model
/// comes from sim::FaultModel::concrete (per component for a mixture).
sim::YieldQuery query_of(const CampaignPoint& point, const CampaignSpec& spec,
                         std::int32_t inner_threads);

/// One executed grid point with its realised chip geometry and estimate.
struct PointResult {
  CampaignPoint point;
  std::int32_t primaries = 0;    ///< actual primary count of the built array
  std::int32_t total_cells = 0;
  double redundancy_ratio = 0.0;
  /// Structural (repairability) estimate — for workload = assay campaigns
  /// this is the structural leg of the operational query, so the "yield"
  /// column keeps its meaning across workloads.
  sim::YieldEstimate estimate;
  double effective_yield = 0.0;  ///< EY = Y / (1 + RR)
  /// Both legs + slowdown stats; populated when point.workload == kAssay.
  sim::OperationalEstimate operational;
};

/// Work-dedup accounting for logs and tests (unique_points = distinct
/// session queries actually simulated; store_hits = distinct queries served
/// by an attached result store instead — checkpoint/resume traffic).
struct RunnerStats {
  std::size_t grid_points = 0;
  std::size_t unique_points = 0;
  std::size_t store_hits = 0;
  std::size_t cache_hits() const noexcept {
    return grid_points - unique_points - store_hits;
  }
};

class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignSpec spec);

  /// Attaches a sink (not owned; must outlive run()).
  void add_sink(ArtifactSink& sink);

  /// Attaches an external result cache (e.g. serve::ResultStore) that every
  /// session created by run() consults before simulating. Already-stored
  /// points load instead of recomputing, which turns any campaign into a
  /// checkpoint/resume one: kill it mid-run, rerun with the same store, and
  /// only uncomputed points execute — with artifacts byte-identical to an
  /// uninterrupted run (stored payloads are bit-exact).
  void set_result_cache(std::shared_ptr<sim::ResultCache> cache);

  /// Expands the grid, opens one session per (design, size) and checks
  /// every point against its design: a fixed_count m, or a mixture
  /// component's m, above the design's cell count throws ContractViolation
  /// naming the value and the cell count. run() prepares when this was not
  /// called; a caller that opens artifact files calls it first, so a
  /// rejected spec leaves existing artifacts untouched. Attach the result
  /// cache before preparing.
  void prepare();

  /// Expands the grid, executes every unique point, streams rows to the
  /// sinks and returns per-grid-point results in grid order. Consumes the
  /// prepared sessions: a second run() prepares afresh.
  std::vector<PointResult> run();

  const CampaignSpec& spec() const noexcept { return spec_; }
  /// Valid after run().
  const RunnerStats& stats() const noexcept { return stats_; }

  /// Artifact column headers for this campaign (param column varies with
  /// the injector: "p" / "m" / "mean_spots").
  std::vector<std::string> header() const;
  /// Formats one result as artifact cells, matching header().
  std::vector<std::string> format_row(const PointResult& result) const;
  /// The console/markdown title line.
  std::string title() const;

 private:
  using SessionKey = std::pair<Design, std::int32_t>;  ///< (design, size)

  CampaignSpec spec_;
  std::vector<ArtifactSink*> sinks_;
  std::shared_ptr<sim::ResultCache> result_cache_;
  RunnerStats stats_;
  // prepare()'s output, consumed by run().
  bool prepared_ = false;
  std::vector<CampaignPoint> points_;
  std::map<SessionKey, std::unique_ptr<sim::Session>> sessions_;
};

}  // namespace dmfb::campaign
