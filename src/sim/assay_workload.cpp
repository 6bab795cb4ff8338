#include "sim/assay_workload.hpp"

#include <algorithm>
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
  for (const assay::AssayOp& op : graph.ops()) {
    if (assay::capacity_of(surviving, assay::resource_class(op.kind)) < 1) {
      return std::nullopt;
    }
  }

  const assay::Schedule schedule = [&] {
    obs::ScopedSpan span("assay.schedule", "op");
    const obs::ScopedDuration timer(obs::Metric::kAssayScheduleNs);
    return assay::ListScheduler(surviving).schedule(graph);
  }();

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
          static_cast<std::size_t>(schedule.of(op.id).resource_index);
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
  return schedule.makespan() +
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
      array_(workload_->design().array()),
      replacement_of_(static_cast<std::size_t>(array_.cell_count()),
                      hex::kInvalidCell) {}

OperationalRun OperationalState::evaluate(reconfig::CoveragePolicy policy,
                                          graph::MatchingEngine engine,
                                          reconfig::ReplacementPool pool) {
  // Mirror the fault bitmap onto the private array so the reconfig layer
  // sees the drawn fault set.
  for (const CellIndex cell : faults_.faulty_cells()) {
    array_.set_health(cell, biochip::CellHealth::kFaulty);
  }
  const reconfig::ReconfigPlan plan = [&] {
    obs::ScopedSpan span("reconfig.plan", "op");
    const obs::ScopedDuration timer(obs::Metric::kReconfigPlanNs);
    return reconfig::LocalReconfigurer(policy, engine, pool).plan(array_);
  }();

  OperationalRun run;
  run.structural = plan.success;
  const std::optional<double> completion = run_assay(plan);
  run.operational = completion.has_value();
  if (completion) {
    run.completion_s = *completion;
    run.slowdown = *completion / workload_->baseline_completion_s_;
  }

  // Restore the mirror in O(#faults) for the next draw.
  for (const CellIndex cell : faults_.faulty_cells()) {
    array_.set_health(cell, biochip::CellHealth::kHealthy);
  }
  return run;
}

}  // namespace dmfb::sim
