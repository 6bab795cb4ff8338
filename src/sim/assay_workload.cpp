#include "sim/assay_workload.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_set>

#include "assay/multiplexed_chip.hpp"
#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmfb::sim {

const char* to_string(WorkloadModule::Kind kind) noexcept {
  switch (kind) {
    case WorkloadModule::Kind::kPort: return "port";
    case WorkloadModule::Kind::kMixer: return "mixer";
    case WorkloadModule::Kind::kDetector: return "detector";
  }
  return "?";
}

namespace {

/// The module kind an op's resource class binds to, or nullopt for the
/// resource-free store class.
std::optional<WorkloadModule::Kind> module_kind_of(
    assay::ResourceClass rc) noexcept {
  switch (rc) {
    case assay::ResourceClass::kPort: return WorkloadModule::Kind::kPort;
    case assay::ResourceClass::kMixer: return WorkloadModule::Kind::kMixer;
    case assay::ResourceClass::kDetector:
      return WorkloadModule::Kind::kDetector;
    case assay::ResourceClass::kNone: return std::nullopt;
  }
  return std::nullopt;
}

std::size_t kind_slot(WorkloadModule::Kind kind) noexcept {
  return static_cast<std::size_t>(kind);
}

}  // namespace

std::optional<double> OperationalState::run_assay(
    const reconfig::ReconfigPlan& plan) {
  for (const reconfig::Replacement& replacement : plan.replacements) {
    replacement_of_[static_cast<std::size_t>(replacement.faulty)] =
        replacement.spare;
  }
  const std::optional<double> completion = degraded_completion(plan);
  for (const reconfig::Replacement& replacement : plan.replacements) {
    replacement_of_[static_cast<std::size_t>(replacement.faulty)] =
        hex::kInvalidCell;
  }
  return completion;
}

std::optional<double> OperationalState::degraded_completion(
    const reconfig::ReconfigPlan& plan) {
  const assay::SequencingGraph& graph = workload_->graph_;
  const std::span<const WorkloadModule> modules = workload_->modules_;
  // The cell that carries out `cell`'s duty: itself when healthy, else the
  // adjacent replacement the plan assigned (kInvalidCell when none).
  const auto operator_of = [&](CellIndex cell) {
    return faults_.is_faulty(cell)
               ? replacement_of_[static_cast<std::size_t>(cell)]
               : cell;
  };
  // A module survives iff every one of its cells still has an operator.
  for (auto& alive : alive_by_kind_) alive.clear();
  for (std::size_t m = 0; m < modules.size(); ++m) {
    const WorkloadModule& module = modules[m];
    if (std::all_of(module.cells.begin(), module.cells.end(),
                    [&](CellIndex cell) {
                      return operator_of(cell) != hex::kInvalidCell;
                    })) {
      alive_by_kind_[kind_slot(module.kind)].push_back(m);
    }
  }
  assay::ResourcePool surviving;
  surviving.dispense_ports = static_cast<std::int32_t>(
      alive_by_kind_[kind_slot(WorkloadModule::Kind::kPort)].size());
  surviving.mixers = static_cast<std::int32_t>(
      alive_by_kind_[kind_slot(WorkloadModule::Kind::kMixer)].size());
  surviving.detectors = static_cast<std::int32_t>(
      alive_by_kind_[kind_slot(WorkloadModule::Kind::kDetector)].size());

  // Graceful degradation ends where a resource class the assay needs has no
  // surviving instance at all.
  const assay::Schedule* const degraded = schedule(surviving);
  if (degraded == nullptr) return std::nullopt;

  // Usable cells: healthy primaries plus the plan's replacements (spares,
  // or unused primaries already in the mask), minus every faulty cell.
  obs::ScopedSpan route_span("fluidics.route", "op");
  const obs::ScopedDuration route_timer(obs::Metric::kRouteNs);
  const fluidics::HopGrid& grid = workload_->grid_;
  usable_.assign(grid.primary_words().begin(), grid.primary_words().end());
  for (const reconfig::Replacement& replacement : plan.replacements) {
    grid.set(usable_, replacement.spare);
  }
  for (const CellIndex cell : faults_.faulty_cells()) grid.clear(usable_, cell);

  // Transport endpoints: the scheduler's instance index i binds an op to
  // the i-th surviving module of its class (module order); a faulty anchor
  // cell hands the endpoint to its replacement. Resource-free ops (store)
  // park at their producer's endpoint.
  anchor_.assign(static_cast<std::size_t>(graph.op_count()),
                 hex::kInvalidCell);
  std::int64_t transport_hops = 0;
  for (const assay::AssayOp& op : graph.ops()) {
    const auto id = static_cast<std::size_t>(op.id);
    const auto kind = module_kind_of(assay::resource_class(op.kind));
    if (kind) {
      const auto& alive = alive_by_kind_[kind_slot(*kind)];
      const auto instance =
          static_cast<std::size_t>(degraded->of(op.id).resource_index);
      DMFB_ASSERT(instance < alive.size());
      anchor_[id] = operator_of(modules[alive[instance]].cells.front());
    } else {
      DMFB_ASSERT(!op.inputs.empty());
      anchor_[id] = anchor_[static_cast<std::size_t>(op.inputs.front())];
    }
    DMFB_ASSERT(anchor_[id] != hex::kInvalidCell);
    for (const std::int32_t input : op.inputs) {
      const std::int32_t hops =
          grid.hops(usable_, anchor_[static_cast<std::size_t>(input)],
                    anchor_[id], hop_scratch_);
      if (hops < 0) return std::nullopt;  // transport severed: assay fails
      transport_hops += hops;
    }
  }
  return degraded->makespan() +
         kTransportSecondsPerHop * static_cast<double>(transport_hops);
}

AssayWorkload::AssayWorkload(std::shared_ptr<const ChipDesign> design,
                             assay::SequencingGraph graph,
                             std::vector<WorkloadModule> modules)
    : design_(std::move(design)),
      graph_(std::move(graph)),
      modules_(std::move(modules)),
      grid_(design_->array()) {}

std::shared_ptr<const AssayWorkload> AssayWorkload::make(
    std::shared_ptr<const ChipDesign> design, assay::SequencingGraph graph,
    std::vector<WorkloadModule> modules) {
  DMFB_EXPECTS(design != nullptr);
  DMFB_EXPECTS(graph.op_count() > 0);
  DMFB_EXPECTS(!modules.empty());
  const biochip::HexArray& array = design->array();
  std::unordered_set<CellIndex> taken;
  for (const WorkloadModule& module : modules) {
    DMFB_EXPECTS(!module.cells.empty());
    for (const CellIndex cell : module.cells) {
      DMFB_EXPECTS(cell >= 0 && cell < array.cell_count());
      DMFB_EXPECTS(array.role(cell) == biochip::CellRole::kPrimary);
      // Modules may not overlap — instance binding would be ambiguous.
      DMFB_EXPECTS(taken.insert(cell).second);
    }
  }

  // shared_ptr<const AssayWorkload> with a private constructor.
  auto workload = std::shared_ptr<AssayWorkload>(
      new AssayWorkload(std::move(design), std::move(graph),
                        std::move(modules)));
  workload->full_pool_ = assay::ResourcePool{0, 0, 0};  // counted, not default
  for (const WorkloadModule& module : workload->modules_) {
    switch (module.kind) {
      case WorkloadModule::Kind::kPort:
        ++workload->full_pool_.dispense_ports;
        break;
      case WorkloadModule::Kind::kMixer: ++workload->full_pool_.mixers; break;
      case WorkloadModule::Kind::kDetector:
        ++workload->full_pool_.detectors;
        break;
    }
  }

  // The healthy-array baseline must be feasible, or slowdown ratios (and
  // the workload itself) are meaningless.
  reconfig::ReconfigPlan healthy_plan;
  healthy_plan.success = true;
  const std::optional<double> baseline =
      OperationalState(workload).run_assay(healthy_plan);
  DMFB_EXPECTS(baseline.has_value());
  DMFB_EXPECTS(*baseline > 0.0);
  workload->baseline_completion_s_ = *baseline;

  // FNV-1a, 64-bit, like ChipDesign's: stable across runs and platforms.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  const auto mix_list = [&mix](const auto& values) {
    mix(values.size());
    for (const auto value : values) mix(static_cast<std::uint64_t>(value));
  };
  mix(static_cast<std::uint64_t>(workload->graph_.op_count()));
  for (const assay::AssayOp& op : workload->graph_.ops()) {
    mix(static_cast<std::uint64_t>(op.kind));
    mix(std::bit_cast<std::uint64_t>(op.duration_s));
    mix_list(op.inputs);
  }
  mix(workload->modules_.size());
  for (const WorkloadModule& module : workload->modules_) {
    mix(static_cast<std::uint64_t>(module.kind));
    mix_list(module.cells);
  }
  workload->fingerprint_ = hash;
  return workload;
}

std::shared_ptr<const AssayWorkload> AssayWorkload::multiplexed() {
  const assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  std::vector<WorkloadModule> modules;
  std::unordered_set<CellIndex> seen_ports;
  for (const assay::AssayChain& chain : chip.chains) {
    // S1/S2/R1/R2 are shared across chains; one port module per cell.
    for (const CellIndex port : {chain.sample_source, chain.reagent_source}) {
      if (seen_ports.insert(port).second) {
        modules.push_back({WorkloadModule::Kind::kPort, {port}});
      }
    }
  }
  for (const assay::AssayChain& chain : chip.chains) {
    modules.push_back({WorkloadModule::Kind::kMixer, chain.mixer_cells});
  }
  for (const assay::AssayChain& chain : chip.chains) {
    modules.push_back(
        {WorkloadModule::Kind::kDetector, {chain.detector_cell}});
  }
  return make(ChipDesign::make(chip.array),
              assay::SequencingGraph::multiplexed_ivd(), std::move(modules));
}

namespace {

std::shared_ptr<const AssayWorkload> require_workload(
    std::shared_ptr<const AssayWorkload> workload) {
  DMFB_EXPECTS(workload != nullptr);
  return workload;
}

}  // namespace

OperationalState::OperationalState(
    std::shared_ptr<const AssayWorkload> workload)
    : workload_(require_workload(std::move(workload))),
      faults_(workload_->design_ptr()),
      right_of_cell_(
          static_cast<std::size_t>(workload_->design().cell_count()), -1),
      schedules_(static_cast<std::size_t>(
          (workload_->full_pool_.dispense_ports + 1) *
          (workload_->full_pool_.mixers + 1) *
          (workload_->full_pool_.detectors + 1))),
      replacement_of_(
          static_cast<std::size_t>(workload_->design().cell_count()),
          hex::kInvalidCell) {}

const reconfig::ReconfigPlan& OperationalState::plan(
    reconfig::CoveragePolicy policy, reconfig::ReplacementPool pool) {
  const ChipDesign::Skeleton& skeleton =
      workload_->design().skeleton(policy, pool);
  // Faulty covered primaries in ascending cell order — cells_to_cover's
  // order, since the design's primaries are numbered ascending.
  cover_.clear();
  const std::span<const std::uint64_t> words = faults_.fault_words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w] & skeleton.cover_words[w]; bits != 0;
         bits &= bits - 1) {
      cover_.push_back(static_cast<CellIndex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  plan_.replacements.clear();
  plan_.unrepairable.clear();
  if (cover_.empty()) {
    plan_.success = true;
    return plan_;
  }
  // Each row keeps its healthy skeleton candidates in skeleton order, and
  // replacement cells are numbered as first discovered.
  graph_.clear();
  right_cells_.clear();
  for (const CellIndex faulty : cover_) {
    graph_.open_row();
    const auto row = static_cast<std::size_t>(
        skeleton.cover_row_of_cell[static_cast<std::size_t>(faulty)]);
    for (const CellIndex candidate : skeleton.candidates_of(row)) {
      if (faults_.is_faulty(candidate)) continue;
      std::int32_t& b = right_of_cell_[static_cast<std::size_t>(candidate)];
      if (b < 0) {
        b = static_cast<std::int32_t>(right_cells_.size());
        right_cells_.push_back(candidate);
      }
      graph_.add_edge(b);
    }
  }
  for (const CellIndex cell : right_cells_) {
    right_of_cell_[static_cast<std::size_t>(cell)] = -1;
  }
  plan_.success = matcher_.covers_all_left(graph_);
  const std::span<const std::int32_t> match_of_left = matcher_.match_of_left();
  for (std::size_t a = 0; a < cover_.size(); ++a) {
    const std::int32_t b = match_of_left[a];
    if (b == graph::kUnmatched) {
      plan_.unrepairable.push_back(cover_[a]);
    } else {
      plan_.replacements.push_back(
          {cover_[a], right_cells_[static_cast<std::size_t>(b)]});
    }
  }
  return plan_;
}

const assay::Schedule* OperationalState::schedule(
    const assay::ResourcePool& pool) {
  const assay::ResourcePool& full = workload_->full_pool_;
  DMFB_EXPECTS(pool.dispense_ports >= 0 &&
               pool.dispense_ports <= full.dispense_ports);
  DMFB_EXPECTS(pool.mixers >= 0 && pool.mixers <= full.mixers);
  DMFB_EXPECTS(pool.detectors >= 0 && pool.detectors <= full.detectors);
  const assay::SequencingGraph& graph = workload_->graph_;
  for (const assay::AssayOp& op : graph.ops()) {
    if (assay::capacity_of(pool, assay::resource_class(op.kind)) < 1) {
      return nullptr;
    }
  }
  obs::ScopedSpan span("assay.schedule", "op");
  const obs::ScopedDuration timer(obs::Metric::kAssayScheduleNs);
  std::optional<assay::Schedule>& slot =
      schedules_[static_cast<std::size_t>(
          (pool.dispense_ports * (full.mixers + 1) + pool.mixers) *
              (full.detectors + 1) +
          pool.detectors)];
  if (!slot) slot = assay::ListScheduler(pool).schedule(graph);
  return &*slot;
}

std::size_t OperationalState::memoised_schedules() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(schedules_.begin(), schedules_.end(),
                    [](const auto& slot) { return slot.has_value(); }));
}

OperationalRun OperationalState::evaluate(reconfig::CoveragePolicy policy,
                                          reconfig::ReplacementPool pool) {
  {
    obs::ScopedSpan span("reconfig.plan", "op");
    const obs::ScopedDuration timer(obs::Metric::kReconfigPlanNs);
    plan(policy, pool);
  }

  OperationalRun run;
  run.structural = plan_.success;
  const std::optional<double> completion = run_assay(plan_);
  run.operational = completion.has_value();
  if (completion) {
    run.completion_s = *completion;
    run.slowdown = *completion / workload_->baseline_completion_s_;
  }
  return run;
}

}  // namespace dmfb::sim
