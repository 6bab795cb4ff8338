// sim::AssayWorkload — immutable operational workload for the session engine.
//
// Structural yield (Session's original metric) stops at repairability: a run
// succeeds iff the matching covers the faulty primaries. The paper's second
// half (Figs. 12-13) cares about what happens *after* repair: a multiplexed
// bioassay keeps running on the reconfigured array, and yield only counts if
// the remapped schedule still completes. AssayWorkload freezes everything
// that question needs — a pre-compiled sequencing graph, the placed fluidic
// modules (dispense ports, mixers, detectors) on a ChipDesign, and the
// healthy-array baseline completion time — behind a shared_ptr that any
// number of sessions and worker threads read concurrently, exactly like
// ChipDesign itself.
//
// The per-run operational kernel (OperationalState::evaluate) is the first
// place the top and bottom halves of the codebase meet in one Monte-Carlo
// loop: it builds the reconfig::ReconfigPlan for the drawn fault set from
// the design's matching skeleton and the fault words (no HexArray is
// touched), applies it to the module placement (a faulty module cell
// survives iff the plan hands its duty to an adjacent replacement), looks
// up the assay's assay::ListScheduler schedule for the surviving resource
// pool (computed once per pool and kept), and counts each droplet
// transport's shortest-path hops over the repaired array (activated
// replacement spares included). Only hop counts are computed, never paths:
// fluidics::HopGrid runs a word-parallel BFS on a usable-cell bitmap built
// per run from the primary mask, the fault bits and the plan's spares. A
// run is operationally successful iff every resource class the graph needs
// keeps >= 1 instance, the degraded schedule exists, and every droplet
// transport still has a path; its completion time is the degraded makespan
// plus the transport overhead, so "slowdown" = completion /
// healthy-baseline-completion.
//
// Everything in the kernel is a deterministic function of the drawn fault
// set, so operational estimates inherit the session's thread-count
// invariance bit-for-bit (pinned by tests/test_sim_operational.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "assay/list_scheduler.hpp"
#include "assay/sequencing_graph.hpp"
#include "fluidics/router.hpp"
#include "graph/csr_matching.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/chip_design.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {

/// Droplet transport speed: one electrode hop per actuation period (10 Hz
/// electrowetting switching, the standard DMFB figure). Converts transport
/// hop counts into the seconds added on top of the schedule makespan.
inline constexpr double kTransportSecondsPerHop = 0.1;

/// One placed fluidic module of the workload. `cells` are primary cells of
/// the design (offset order); cells[0] is the droplet anchor, the module's
/// transport endpoint.
struct WorkloadModule {
  enum class Kind : std::uint8_t { kPort, kMixer, kDetector };

  Kind kind = Kind::kMixer;
  std::vector<CellIndex> cells;
};

const char* to_string(WorkloadModule::Kind kind) noexcept;

class AssayWorkload {
 public:
  /// Compiles a workload: validates that every module cell is a primary
  /// cell of `design`, that every resource class `graph` uses has >= 1
  /// module, and that the healthy-array baseline (full-pool schedule +
  /// every transport connected) is feasible; the baseline completion time
  /// is frozen into the workload, next to the design's HopGrid. Throws
  /// ContractViolation otherwise.
  static std::shared_ptr<const AssayWorkload> make(
      std::shared_ptr<const ChipDesign> design, assay::SequencingGraph graph,
      std::vector<WorkloadModule> modules);

  /// The paper's Section-7 workload: the multiplexed in-vitro diagnostics
  /// chip (252 primaries + 91 spares, 108 assay-used cells) carrying the
  /// 2 samples x 2 reagents sequencing graph, with the chains' dispense
  /// ports, mixers and detectors as the placed modules.
  static std::shared_ptr<const AssayWorkload> multiplexed();

  const ChipDesign& design() const noexcept { return *design_; }
  std::shared_ptr<const ChipDesign> design_ptr() const noexcept {
    return design_;
  }
  const assay::SequencingGraph& graph() const noexcept { return graph_; }
  std::span<const WorkloadModule> modules() const noexcept { return modules_; }

  /// Full (healthy-array) resource pool: one instance per placed module.
  const assay::ResourcePool& full_pool() const noexcept { return full_pool_; }

  /// Healthy-array completion time (full-pool makespan + transport
  /// overhead) — the denominator of every per-run slowdown ratio.
  double baseline_completion_s() const noexcept {
    return baseline_completion_s_;
  }

  /// Content fingerprint (FNV-1a over every op's kind, duration and
  /// inputs, then every module's kind and cells; op labels are names the
  /// scheduler never reads). Next to the design's fingerprint it keys
  /// operational answers in result stores (sim::store_key), so two
  /// workloads on one design never share a record.
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

 private:
  AssayWorkload(std::shared_ptr<const ChipDesign> design,
                assay::SequencingGraph graph,
                std::vector<WorkloadModule> modules);

  std::shared_ptr<const ChipDesign> design_;
  assay::SequencingGraph graph_;
  std::vector<WorkloadModule> modules_;
  fluidics::HopGrid grid_;  ///< the design's bitmap, for transport hops
  assay::ResourcePool full_pool_;
  double baseline_completion_s_ = 0.0;
  std::uint64_t fingerprint_ = 0;

  friend class OperationalState;
};

/// One Monte-Carlo draw evaluated operationally.
struct OperationalRun {
  bool structural = false;   ///< the reconfiguration plan covered the faults
  bool operational = false;  ///< the remapped assay still completes
  /// Degraded completion time and its ratio to the healthy baseline; valid
  /// only when `operational`.
  double completion_s = 0.0;
  double slowdown = 0.0;
};

/// Per-thread operational scratch: a FaultState for the injectors, the
/// plan step's reusable bipartite graph and matcher, a lazily filled memo
/// of schedules by surviving resource pool, and the assay evaluation's
/// buffers (cell -> replacement table, usable-cell bitmap, BFS scratch).
/// Not thread-safe; use one per worker (mirrors FaultState's contract).
class OperationalState {
 public:
  explicit OperationalState(std::shared_ptr<const AssayWorkload> workload);

  const AssayWorkload& workload() const noexcept { return *workload_; }

  /// The fault bitmap sim::inject writes into.
  FaultState& faults() noexcept { return faults_; }

  /// Evaluates the current fault set: plan -> surviving modules ->
  /// schedule -> transport hops. Leaves the fault set untouched (call
  /// reset() between runs, as with FaultState).
  OperationalRun evaluate(reconfig::CoveragePolicy policy,
                          reconfig::ReplacementPool pool);

  /// evaluate(policy, pool); `engine` is not read. Exists only for
  /// perfbench/layers.cpp and is removed in the next benchmark change.
  OperationalRun evaluate(reconfig::CoveragePolicy policy,
                          graph::MatchingEngine /*engine*/,
                          reconfig::ReplacementPool pool) {
    return evaluate(policy, pool);
  }

  /// The plan step of evaluate(): the spare assignment for the current
  /// fault set, equal (success, replacements in order, unrepairable) to
  /// reconfig::LocalReconfigurer(policy, pool).plan() on an equally
  /// faulted HexArray. The graph is the design skeleton's (policy, pool)
  /// rows of the faulty covered primaries in cell order, each filtered to
  /// its healthy candidates, with replacement cells numbered in
  /// first-discovery order — the graph LocalReconfigurer builds — and the
  /// same Hopcroft-Karp matches it. The reference stays valid until the
  /// next plan() or evaluate() call.
  const reconfig::ReconfigPlan& plan(reconfig::CoveragePolicy policy,
                                     reconfig::ReplacementPool pool);

  /// The assay's schedule on `pool`, or nullptr when a resource class the
  /// graph uses has no instance in it (the assay fails). Each class of
  /// `pool` must lie in [0, the workload's full_pool() count]. The first
  /// call for a pool runs assay::ListScheduler(pool).schedule(graph) and
  /// keeps the result; later calls return the kept schedule.
  const assay::Schedule* schedule(const assay::ResourcePool& pool);

  /// Pools whose schedule schedule() has computed and kept so far.
  std::size_t memoised_schedules() const noexcept;

  /// Clears the fault bitmap in O(#faults).
  void reset() noexcept { faults_.reset(); }

 private:
  friend class AssayWorkload;  // evaluates the healthy baseline

  /// Completion time of the assay on the current fault set repaired by
  /// `plan`, or nullopt when the assay cannot finish. Deterministic in
  /// (fault set, plan); leaves the scratch ready for the next run.
  std::optional<double> run_assay(const reconfig::ReconfigPlan& plan);
  /// run_assay's body, called with replacement_of_ filled from `plan`.
  std::optional<double> degraded_completion(
      const reconfig::ReconfigPlan& plan);

  std::shared_ptr<const AssayWorkload> workload_;
  FaultState faults_;

  // plan() scratch, reused across runs: the faulty covered primaries (cell
  // order), BG(A, B, E) over them, its matcher, the replacement-cell
  // numbering (right_of_cell_ is -1 except during a plan() call) and the
  // plan itself.
  std::vector<CellIndex> cover_;
  graph::CsrBipartiteGraph graph_;
  graph::CsrMatcher matcher_;
  std::vector<std::int32_t> right_of_cell_;
  std::vector<CellIndex> right_cells_;
  reconfig::ReconfigPlan plan_;

  // schedule() memo, one slot per pool <= full_pool(), filled on first use.
  std::vector<std::optional<assay::Schedule>> schedules_;

  // run_assay scratch. replacement_of_ maps a cell to the plan's spare for
  // it (kInvalidCell otherwise) and is restored in O(|plan|) after a run.
  std::vector<CellIndex> replacement_of_;
  std::vector<std::uint64_t> usable_;  ///< HopGrid bitmap of usable cells
  fluidics::HopGrid::Scratch hop_scratch_;
  std::vector<std::size_t> alive_by_kind_[3];  ///< surviving modules by kind
  std::vector<CellIndex> anchor_;              ///< per-op transport endpoint
};

}  // namespace dmfb::sim
