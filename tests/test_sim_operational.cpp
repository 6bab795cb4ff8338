// Contract and determinism tests for the operational workload pipeline:
// sim::AssayWorkload, the per-run OperationalState kernel, and the
// Session's Workload::kAssay query path.
//
// The load-bearing suite is the thread-invariance pin: for every
// (policy x pool) combination the operational estimate — both
// yield legs, the run-order-folded mean slowdown and the worst slowdown —
// must be bit-identical at threads 1 and 4. A second pin ties the
// structural leg of an operational query to the same query asked with
// Workload::kStructural, so the two halves of the codebase agree on
// repairability run-for-run. The fig13_operational campaign CSV is pinned
// as a golden file, like fig9_smoke. The golden CSV rounds slowdowns to
// four decimals, so the OperationalRunContract pin below digests every
// run's verdicts and the exact bits of its completion time. The kernel's
// two reused steps have their own oracles: its plan equals
// reconfig::LocalReconfigurer's on an equally faulted HexArray, and its
// memoised schedule equals a fresh assay::ListScheduler schedule for every
// pool. The route step's counters (fluidics.route.transports and
// .certified) are checked run by run against a serial reference that
// routes each transport with fluidics::Router in op order.
#include <bit>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "common/contracts.hpp"
#include "fluidics/router.hpp"
#include "obs/metrics.hpp"
#include "sim/assay_workload.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

/// The shared Section-7 workload: building it once keeps the suite fast
/// (chip construction + baseline routing run once, not per test).
const std::shared_ptr<const AssayWorkload>& multiplexed_workload() {
  static const std::shared_ptr<const AssayWorkload> workload =
      AssayWorkload::multiplexed();
  return workload;
}

YieldQuery operational_query(const FaultModel& model, std::int32_t runs,
                             std::int32_t threads) {
  YieldQuery query;
  query.fault = model;
  query.workload = Workload::kAssay;
  query.runs = runs;
  query.threads = threads;
  query.policy = CoveragePolicy::kUsedFaultyPrimaries;
  query.pool = ReplacementPool::kSparesOnly;
  return query;
}

// ------------------------------------------------------------ the workload

TEST(AssayWorkload, MultiplexedMatchesTheSectionSevenChip) {
  const auto& workload = multiplexed_workload();
  EXPECT_EQ(workload->design().primary_count(), 252);
  EXPECT_EQ(workload->design().spare_count(), 91);
  // 4 shared ports + 4 mixers + 4 detectors.
  EXPECT_EQ(workload->modules().size(), 12u);
  EXPECT_EQ(workload->full_pool().dispense_ports, 4);
  EXPECT_EQ(workload->full_pool().mixers, 4);
  EXPECT_EQ(workload->full_pool().detectors, 4);
  // Baseline: full-pool makespan plus routed transport overhead, strictly
  // above the resource-free critical path.
  EXPECT_GT(workload->baseline_completion_s(),
            workload->graph().critical_path());
}

TEST(AssayWorkload, RejectsForeignAndOverlappingModules) {
  const auto design = multiplexed_workload()->design_ptr();
  const CellIndex primary = design->array().primaries().front();
  const CellIndex spare = design->array().spares().front();
  // A spare cell cannot host a module.
  EXPECT_THROW(AssayWorkload::make(
                   design, assay::SequencingGraph::multiplexed_ivd(),
                   {{WorkloadModule::Kind::kPort, {spare}}}),
               ContractViolation);
  // Overlapping modules are ambiguous.
  EXPECT_THROW(
      AssayWorkload::make(design, assay::SequencingGraph::multiplexed_ivd(),
                          {{WorkloadModule::Kind::kPort, {primary}},
                           {WorkloadModule::Kind::kMixer, {primary}}}),
      ContractViolation);
}

// --------------------------------------------------------- per-run kernel

TEST(OperationalState, HealthyChipCompletesAtBaseline) {
  OperationalState state(multiplexed_workload());
  const OperationalRun run =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     ReplacementPool::kSparesOnly);
  EXPECT_TRUE(run.structural);
  EXPECT_TRUE(run.operational);
  EXPECT_DOUBLE_EQ(run.completion_s,
                   multiplexed_workload()->baseline_completion_s());
  EXPECT_DOUBLE_EQ(run.slowdown, 1.0);
}

TEST(OperationalState, LostMixerDegradesGracefully) {
  const auto& workload = multiplexed_workload();
  OperationalState state(workload);
  // Kill one whole mixer AND its adjacent spares, so no replacement exists:
  // structural repair fails, but the assay re-schedules on 3 mixers.
  const WorkloadModule* mixer = nullptr;
  for (const WorkloadModule& module : workload->modules()) {
    if (module.kind == WorkloadModule::Kind::kMixer) {
      mixer = &module;
      break;
    }
  }
  ASSERT_NE(mixer, nullptr);
  for (const CellIndex cell : mixer->cells) {
    state.faults().set_faulty(cell);
    for (const CellIndex spare :
         workload->design().array().spare_neighbors_of(cell)) {
      state.faults().set_faulty(spare);
    }
  }
  const OperationalRun run =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     ReplacementPool::kSparesOnly);
  EXPECT_FALSE(run.structural);
  EXPECT_TRUE(run.operational);  // 3 mixers still serve the 4 chains
  EXPECT_GT(run.slowdown, 1.0);

  // After reset the healthy baseline is back.
  state.reset();
  const OperationalRun healthy =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     ReplacementPool::kSparesOnly);
  EXPECT_DOUBLE_EQ(healthy.slowdown, 1.0);
}

TEST(OperationalState, AssayFailsWhenAWholeResourceClassDies) {
  const auto& workload = multiplexed_workload();
  OperationalState state(workload);
  // Kill every detector and its spare neighbourhood: no detect op can run.
  for (const WorkloadModule& module : workload->modules()) {
    if (module.kind != WorkloadModule::Kind::kDetector) continue;
    for (const CellIndex cell : module.cells) {
      state.faults().set_faulty(cell);
      for (const CellIndex spare :
           workload->design().array().spare_neighbors_of(cell)) {
        state.faults().set_faulty(spare);
      }
    }
  }
  const OperationalRun run =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     ReplacementPool::kSparesOnly);
  EXPECT_FALSE(run.structural);
  EXPECT_FALSE(run.operational);
}

// ------------------------------------------------ plan and schedule steps

TEST(OperationalState, PlanEqualsLocalReconfigurerOnAnEquallyFaultedArray) {
  const auto& workload = multiplexed_workload();
  OperationalState state(workload);
  biochip::HexArray array = workload->design().array();
  const FaultModel models[] = {
      FaultModel::fixed_count(0),  FaultModel::fixed_count(1),
      FaultModel::fixed_count(8),  FaultModel::fixed_count(25),
      FaultModel::fixed_count(60), FaultModel::fixed_count(90),
      FaultModel::fixed_count(120), FaultModel::bernoulli(0.97),
      FaultModel::bernoulli(0.90),
  };
  std::size_t failed = 0;
  std::size_t replaced = 0;
  for (std::size_t m = 0; m < std::size(models); ++m) {
    for (std::int32_t run = 0; run < 24; ++run) {
      const auto seed = static_cast<std::uint64_t>(700 + m);
      Rng state_rng = run_stream(seed, run);
      inject(models[m], state.faults(), state_rng);
      Rng array_rng = run_stream(seed, run);
      inject(models[m], array, array_rng);
      ASSERT_EQ(array.faulty_count(), state.faults().faulty_count());
      for (const CoveragePolicy policy :
           {CoveragePolicy::kAllFaultyPrimaries,
            CoveragePolicy::kUsedFaultyPrimaries}) {
        for (const ReplacementPool pool :
             {ReplacementPool::kSparesOnly,
              ReplacementPool::kSparesAndUnusedPrimaries}) {
          const reconfig::ReconfigPlan expected =
              reconfig::LocalReconfigurer(policy, pool).plan(array);
          const reconfig::ReconfigPlan& plan = state.plan(policy, pool);
          const std::string where =
              "model " + std::to_string(m) + " run " + std::to_string(run) +
              " policy " + to_string(policy) + " pool " + to_string(pool);
          EXPECT_EQ(plan.success, expected.success) << where;
          EXPECT_EQ(plan.unrepairable, expected.unrepairable) << where;
          EXPECT_EQ(plan.replacements, expected.replacements) << where;
          if (!expected.success) ++failed;
          replaced += expected.replacements.size();
        }
      }
      state.reset();
      array.reset_health();
    }
  }
  // The draws reach both verdicts and real spare assignments.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(replaced, 0u);
}

/// Bit-level equality of two schedules: every op's slot, start, end and
/// resource instance, and the makespan.
void expect_same_schedule(const assay::Schedule& actual,
                          const assay::Schedule& expected,
                          const std::string& where) {
  ASSERT_EQ(actual.ops.size(), expected.ops.size()) << where;
  for (std::size_t i = 0; i < actual.ops.size(); ++i) {
    EXPECT_EQ(actual.ops[i].op, expected.ops[i].op) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.ops[i].start_s),
              std::bit_cast<std::uint64_t>(expected.ops[i].start_s))
        << where << " op " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.ops[i].end_s),
              std::bit_cast<std::uint64_t>(expected.ops[i].end_s))
        << where << " op " << i;
    EXPECT_EQ(actual.ops[i].resource_index, expected.ops[i].resource_index)
        << where << " op " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.makespan()),
            std::bit_cast<std::uint64_t>(expected.makespan()))
      << where;
}

TEST(OperationalState, MemoisedScheduleEqualsAFreshScheduleForEveryPool) {
  const auto& workload = multiplexed_workload();
  const assay::SequencingGraph& graph = workload->graph();
  const assay::ResourcePool& full = workload->full_pool();
  OperationalState state(workload);
  // Lazy: construction computes nothing.
  EXPECT_EQ(state.memoised_schedules(), 0u);

  std::size_t filled = 0;
  for (std::int32_t ports = 0; ports <= full.dispense_ports; ++ports) {
    for (std::int32_t mixers = 0; mixers <= full.mixers; ++mixers) {
      for (std::int32_t detectors = 0; detectors <= full.detectors;
           ++detectors) {
        const assay::ResourcePool pool{ports, mixers, detectors};
        const std::string where = "pool " + std::to_string(ports) + "/" +
                                  std::to_string(mixers) + "/" +
                                  std::to_string(detectors);
        bool feasible = true;
        for (const assay::AssayOp& op : graph.ops()) {
          feasible = feasible &&
                     assay::capacity_of(pool, assay::resource_class(
                                                  op.kind)) >= 1;
        }
        const assay::Schedule* memo = state.schedule(pool);
        if (!feasible) {
          // "Assay fails" comes back before the memo is touched.
          EXPECT_EQ(memo, nullptr) << where;
          EXPECT_EQ(state.memoised_schedules(), filled) << where;
          continue;
        }
        ASSERT_NE(memo, nullptr) << where;
        EXPECT_EQ(state.memoised_schedules(), ++filled) << where;
        expect_same_schedule(*memo,
                             assay::ListScheduler(pool).schedule(graph),
                             where);
        // A second lookup returns the kept schedule, computing nothing.
        EXPECT_EQ(state.schedule(pool), memo) << where;
        EXPECT_EQ(state.memoised_schedules(), filled) << where;
      }
    }
  }
  // The multiplexed assay uses every class: each pool with >= 1 of each.
  EXPECT_EQ(filled, static_cast<std::size_t>(full.dispense_ports *
                                             full.mixers * full.detectors));
  // Pools beyond the placed modules have no slot.
  assay::ResourcePool beyond = full;
  ++beyond.mixers;
  EXPECT_THROW(state.schedule(beyond), ContractViolation);
}

TEST(OperationalState, EvaluateFillsTheMemoOncePerSurvivingPool) {
  OperationalState state(multiplexed_workload());
  for (int repeat = 0; repeat < 3; ++repeat) {
    const OperationalRun run =
        state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                       ReplacementPool::kSparesOnly);
    EXPECT_TRUE(run.operational);
    EXPECT_EQ(state.memoised_schedules(), 1u);
  }
}

// ------------------------------------------------------ route counters

/// One run's route counters, computed serially: the transports in op
/// order, each settled by the geodesic table when both endpoints sit on
/// their modules' own anchor cells and the stored path has no faulty cell,
/// else routed by fluidics::Router::shortest_route on the repaired array.
/// Counting stops at the first transport with no route, where the assay
/// fails.
struct RouteCount {
  std::int64_t transports = 0;
  std::int64_t certified = 0;
  bool severed = false;
};

RouteCount reference_route_count(const AssayWorkload& workload,
                                 const fluidics::PrimaryGeodesics& geodesics,
                                 const biochip::HexArray& faulted,
                                 std::span<const std::uint64_t> fault_words,
                                 const reconfig::ReconfigPlan& plan) {
  const std::span<const WorkloadModule> modules = workload.modules();
  std::vector<CellIndex> replacement(
      static_cast<std::size_t>(faulted.cell_count()), hex::kInvalidCell);
  for (const reconfig::Replacement& r : plan.replacements) {
    replacement[static_cast<std::size_t>(r.faulty)] = r.spare;
  }
  const auto operator_of = [&](CellIndex cell) {
    return faulted.health(cell) == biochip::CellHealth::kFaulty
               ? replacement[static_cast<std::size_t>(cell)]
               : cell;
  };
  const auto slot_of = [](assay::ResourceClass rc) -> int {
    switch (rc) {
      case assay::ResourceClass::kPort: return 0;
      case assay::ResourceClass::kMixer: return 1;
      case assay::ResourceClass::kDetector: return 2;
      case assay::ResourceClass::kNone: return -1;
    }
    return -1;
  };
  const auto kind_slot = [](WorkloadModule::Kind kind) {
    switch (kind) {
      case WorkloadModule::Kind::kPort: return 0;
      case WorkloadModule::Kind::kMixer: return 1;
      case WorkloadModule::Kind::kDetector: return 2;
    }
    return 0;
  };
  std::vector<std::size_t> alive[3];
  for (std::size_t m = 0; m < modules.size(); ++m) {
    bool survives = true;
    for (const CellIndex cell : modules[m].cells) {
      survives = survives && operator_of(cell) != hex::kInvalidCell;
    }
    if (survives) alive[kind_slot(modules[m].kind)].push_back(m);
  }
  const assay::ResourcePool pool{static_cast<std::int32_t>(alive[0].size()),
                                 static_cast<std::int32_t>(alive[1].size()),
                                 static_cast<std::int32_t>(alive[2].size())};
  const assay::SequencingGraph& graph = workload.graph();
  RouteCount count;
  for (const assay::AssayOp& op : graph.ops()) {
    if (assay::capacity_of(pool, assay::resource_class(op.kind)) < 1) {
      return count;  // no schedule: the assay fails before any transport
    }
  }
  const assay::Schedule schedule = assay::ListScheduler(pool).schedule(graph);
  fluidics::UsableCells usable(faulted);
  usable.activate_plan(plan);
  const fluidics::Router router(usable);
  std::vector<CellIndex> anchor(static_cast<std::size_t>(graph.op_count()));
  std::vector<std::int32_t> home(static_cast<std::size_t>(graph.op_count()),
                                 -1);
  for (const assay::AssayOp& op : graph.ops()) {
    const auto id = static_cast<std::size_t>(op.id);
    const int slot = slot_of(assay::resource_class(op.kind));
    if (slot >= 0) {
      const std::size_t module = alive[slot][static_cast<std::size_t>(
          schedule.of(op.id).resource_index)];
      const CellIndex own = modules[module].cells.front();
      anchor[id] = operator_of(own);
      if (anchor[id] == own) home[id] = static_cast<std::int32_t>(module);
    } else {
      const auto producer = static_cast<std::size_t>(op.inputs.front());
      anchor[id] = anchor[producer];
      home[id] = home[producer];
    }
    for (const std::int32_t input : op.inputs) {
      const auto from = static_cast<std::size_t>(input);
      ++count.transports;
      if (home[from] >= 0 && home[id] >= 0 &&
          geodesics.certified_hops(static_cast<std::size_t>(home[from]),
                                   static_cast<std::size_t>(home[id]),
                                   fault_words) >= 0) {
        ++count.certified;
      } else if (router.shortest_route(anchor[from], anchor[id]).empty()) {
        count.severed = true;
        return count;
      }
    }
  }
  return count;
}

TEST(OperationalState, RouteCountersMatchASerialRouterReference) {
  const auto& workload = multiplexed_workload();
  OperationalState state(workload);
  std::vector<CellIndex> anchors;
  for (const WorkloadModule& module : workload->modules()) {
    anchors.push_back(module.cells.front());
  }
  const fluidics::PrimaryGeodesics geodesics(workload->design().array(),
                                             anchors);
  const FaultModel models[] = {
      FaultModel::fixed_count(20), FaultModel::fixed_count(60),
      FaultModel::fixed_count(90), FaultModel::fixed_count(120),
      FaultModel::bernoulli(0.90),
  };
  std::int64_t certified = 0;
  std::int64_t searched = 0;
  std::size_t severed = 0;
  std::size_t severed_after_others = 0;
  for (std::size_t m = 0; m < std::size(models); ++m) {
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        for (std::int32_t run = 0; run < 40; ++run) {
          Rng rng = run_stream(900 + m, run);
          inject(models[m], state.faults(), rng);
          biochip::HexArray faulted = workload->design().array();
          for (const CellIndex cell : state.faults().faulty_cells()) {
            faulted.set_health(cell, biochip::CellHealth::kFaulty);
          }
          const RouteCount expected = reference_route_count(
              *workload, geodesics, faulted, state.faults().fault_words(),
              reconfig::LocalReconfigurer(policy, pool).plan(faulted));

          obs::Registry registry;
          registry.install();
          const OperationalRun result = state.evaluate(policy, pool);
          registry.uninstall();
          const obs::Snapshot snapshot = registry.snapshot();
          const std::string where = "model " + std::to_string(m) + " run " +
                                    std::to_string(run) + " policy " +
                                    to_string(policy) + " pool " +
                                    to_string(pool);
          ASSERT_EQ(snapshot.counter(obs::Metric::kRouteTransports),
                    expected.transports)
              << where;
          ASSERT_EQ(snapshot.counter(obs::Metric::kRouteCertified),
                    expected.certified)
              << where;
          if (expected.severed) {
            EXPECT_FALSE(result.operational) << where;
            ++severed;
            if (expected.transports > 1) ++severed_after_others;
          }
          certified += expected.certified;
          searched += expected.transports - expected.certified;
          state.reset();
        }
      }
    }
  }
  // Both kinds of transport occur, and runs stop at a severed transport
  // with earlier transports already counted.
  EXPECT_GT(certified, 1000);
  EXPECT_GT(searched, 1000);
  EXPECT_GT(severed, 20u);
  EXPECT_GT(severed_after_others, 10u);
}

// ------------------------------------------------- determinism (acceptance)

TEST(SimOperational, BitIdenticalAcrossThreadsForEveryEngineCombination) {
  const auto& workload = multiplexed_workload();
  // One session per thread count: `threads` is not part of the cache key,
  // so a shared session would serve the threads=4 leg from cache.
  Session serial_session(workload);
  Session parallel_session(workload);
  for (const FaultModel& model :
       {FaultModel::fixed_count(25), FaultModel::bernoulli(0.97)}) {
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const ReplacementPool pool :
           {ReplacementPool::kSparesOnly,
            ReplacementPool::kSparesAndUnusedPrimaries}) {
        YieldQuery query = operational_query(model, 192, 1);
        query.policy = policy;
        query.pool = pool;
        const OperationalEstimate serial =
            serial_session.run_operational(query);
        query.threads = 4;
        const OperationalEstimate parallel =
            parallel_session.run_operational(query);
        EXPECT_EQ(parallel.structural.successes,
                  serial.structural.successes)
            << "policy=" << static_cast<int>(policy)
            << " pool=" << static_cast<int>(pool);
        EXPECT_EQ(parallel.operational.successes,
                  serial.operational.successes);
        // The slowdown fold is floating-point: bit-identity here proves
        // the run-order fold really is thread-count independent.
        EXPECT_DOUBLE_EQ(parallel.mean_slowdown, serial.mean_slowdown);
        EXPECT_DOUBLE_EQ(parallel.worst_slowdown, serial.worst_slowdown);
      }
    }
  }
}

TEST(SimOperational, StructuralLegMatchesStructuralWorkloadRunForRun) {
  const auto& workload = multiplexed_workload();
  Session session(workload);
  YieldQuery query = operational_query(FaultModel::fixed_count(30), 400, 2);
  const OperationalEstimate operational = session.run_operational(query);

  YieldQuery structural = query;
  structural.workload = Workload::kStructural;
  const YieldEstimate direct = session.run(structural);
  EXPECT_EQ(operational.structural.successes, direct.successes);
  EXPECT_DOUBLE_EQ(operational.structural.value, direct.value);
}

TEST(SimOperational, AdaptiveStoppingIsThreadInvariant) {
  const auto& workload = multiplexed_workload();
  Session serial_session(workload);
  Session parallel_session(workload);
  YieldQuery query = operational_query(FaultModel::fixed_count(40), 20000, 1);
  query.target_ci_half_width = 0.05;
  const OperationalEstimate serial = serial_session.run_operational(query);
  EXPECT_LT(serial.operational.runs, 20000);
  EXPECT_EQ(serial.operational.runs % kAdaptiveChunkRuns, 0);
  EXPECT_LE(serial.operational.ci95.width() / 2.0, 0.05);
  // Both legs report the same realised run count.
  EXPECT_EQ(serial.structural.runs, serial.operational.runs);

  query.threads = 4;
  const OperationalEstimate parallel =
      parallel_session.run_operational(query);
  EXPECT_EQ(parallel.operational.runs, serial.operational.runs);
  EXPECT_EQ(parallel.operational.successes, serial.operational.successes);
  EXPECT_DOUBLE_EQ(parallel.mean_slowdown, serial.mean_slowdown);
}

// ----------------------------------------------------- session integration

TEST(SimOperational, RunReturnsTheOperationalLegAndSharesTheCache) {
  Session session(multiplexed_workload());
  const YieldQuery query =
      operational_query(FaultModel::fixed_count(20), 128, 1);
  const OperationalEstimate full = session.run_operational(query);
  const YieldEstimate leg = session.run(query);
  EXPECT_EQ(leg.successes, full.operational.successes);
  EXPECT_DOUBLE_EQ(leg.value, full.operational.value);
  // The run() call was served from the operational cache.
  EXPECT_EQ(session.stats().queries, 2u);
  EXPECT_EQ(session.stats().computed, 1u);
}

TEST(SimOperational, WorkloadIsPartOfTheQueryIdentity) {
  YieldQuery structural;
  structural.fault = FaultModel::fixed_count(10);
  YieldQuery assay = structural;
  assay.workload = Workload::kAssay;
  EXPECT_NE(query_key(structural), query_key(assay));
}

TEST(SimOperational, DesignOnlySessionsRejectAssayQueries) {
  Session session(multiplexed_workload()->design_ptr());
  EXPECT_EQ(session.workload_ptr(), nullptr);
  const YieldQuery query =
      operational_query(FaultModel::fixed_count(5), 32, 1);
  EXPECT_THROW(session.run_operational(query), ContractViolation);
  EXPECT_THROW(session.run(query), ContractViolation);
}

TEST(SimOperational, RunOperationalRequiresTheAssayWorkloadKind) {
  Session session(multiplexed_workload());
  YieldQuery query = operational_query(FaultModel::fixed_count(5), 32, 1);
  query.workload = Workload::kStructural;
  EXPECT_THROW(session.run_operational(query), ContractViolation);
}

// ---------------------------------------------------- per-run output pin

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_fold(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xff;
    digest *= kFnvPrime;
  }
}

/// FNV-1a over (structural, operational, completion_s bits) of `runs`
/// consecutive v1 runs of `model` at seed 2005 — what the kernel hands the
/// session, before any aggregation can hide a one-hop difference.
std::uint64_t operational_run_digest(const FaultModel& model,
                                     CoveragePolicy policy,
                                     ReplacementPool pool, std::int32_t runs) {
  OperationalState state(multiplexed_workload());
  std::uint64_t digest = kFnvOffset;
  for (std::int32_t run = 0; run < runs; ++run) {
    Rng rng = run_stream(2005, run);
    inject(model, state.faults(), rng);
    const OperationalRun result =
        state.evaluate(policy, pool);
    state.reset();
    fnv_fold(digest, result.structural ? 1 : 0);
    fnv_fold(digest, result.operational ? 1 : 0);
    fnv_fold(digest, std::bit_cast<std::uint64_t>(result.completion_s));
  }
  return digest;
}

struct PinnedRunDigest {
  const char* model;
  CoveragePolicy policy;
  ReplacementPool pool;
  std::uint64_t digest;
};

constexpr auto kAll = CoveragePolicy::kAllFaultyPrimaries;
constexpr auto kUsed = CoveragePolicy::kUsedFaultyPrimaries;
constexpr auto kSpares = ReplacementPool::kSparesOnly;
constexpr auto kUnused = ReplacementPool::kSparesAndUnusedPrimaries;

// Recorded from the Router-based kernel (BFS shortest_route per transport).
constexpr PinnedRunDigest kPinnedRunDigests[] = {
    {"fixed_count 0", kAll, kSpares, 0x7055c07c90c94325ULL},
    {"fixed_count 0", kAll, kUnused, 0x7055c07c90c94325ULL},
    {"fixed_count 0", kUsed, kSpares, 0x7055c07c90c94325ULL},
    {"fixed_count 0", kUsed, kUnused, 0x7055c07c90c94325ULL},
    {"fixed_count 20", kAll, kSpares, 0xdfe0e685623be839ULL},
    {"fixed_count 20", kAll, kUnused, 0x68cb088f366a3883ULL},
    {"fixed_count 20", kUsed, kSpares, 0x3a653da47e93314fULL},
    {"fixed_count 20", kUsed, kUnused, 0x9788a14ece5d0716ULL},
    {"fixed_count 60", kAll, kSpares, 0x12998a9333a11ef6ULL},
    {"fixed_count 60", kAll, kUnused, 0x0854234c55f14092ULL},
    {"fixed_count 60", kUsed, kSpares, 0x93df2ff9cbc9accfULL},
    {"fixed_count 60", kUsed, kUnused, 0x3990180f7c45ebb9ULL},
    {"fixed_count 120", kAll, kSpares, 0x4477ba5def46df44ULL},
    {"fixed_count 120", kAll, kUnused, 0xa40b991853a5719cULL},
    {"fixed_count 120", kUsed, kSpares, 0x75c516bcd2c7f117ULL},
    {"fixed_count 120", kUsed, kUnused, 0x1f86582744f035e5ULL},
    {"bernoulli 0.97", kAll, kSpares, 0x16450df1efd95680ULL},
    {"bernoulli 0.97", kAll, kUnused, 0xfc55fe41c56b92efULL},
    {"bernoulli 0.97", kUsed, kSpares, 0xe963f33beb2e25abULL},
    {"bernoulli 0.97", kUsed, kUnused, 0x8d4263899efb8e93ULL},
    {"bernoulli 0.90", kAll, kSpares, 0x5f78af3380e6b628ULL},
    {"bernoulli 0.90", kAll, kUnused, 0x9067bd60dc94ac6cULL},
    {"bernoulli 0.90", kUsed, kSpares, 0xe84166660a332a07ULL},
    {"bernoulli 0.90", kUsed, kUnused, 0x8e25a6d486a307d8ULL},
};

TEST(OperationalRunContract, EveryRunMatchesThePinnedDigests) {
  const std::pair<const char*, FaultModel> models[] = {
      {"fixed_count 0", FaultModel::fixed_count(0)},
      {"fixed_count 20", FaultModel::fixed_count(20)},
      {"fixed_count 60", FaultModel::fixed_count(60)},
      {"fixed_count 120", FaultModel::fixed_count(120)},
      {"bernoulli 0.97", FaultModel::bernoulli(0.97)},
      {"bernoulli 0.90", FaultModel::bernoulli(0.90)},
  };
  const auto hex = [](std::uint64_t value) {
    std::ostringstream out;
    out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
    return out.str();
  };
  std::size_t checked = 0;
  for (const auto& [name, model] : models) {
    for (const CoveragePolicy policy : {kAll, kUsed}) {
      for (const ReplacementPool pool : {kSpares, kUnused}) {
        const PinnedRunDigest* pinned = nullptr;
        for (const PinnedRunDigest& entry : kPinnedRunDigests) {
          if (std::string_view(entry.model) == name &&
              entry.policy == policy && entry.pool == pool) {
            pinned = &entry;
          }
        }
        ASSERT_NE(pinned, nullptr) << name;
        EXPECT_EQ(hex(operational_run_digest(model, policy, pool, 256)),
                  hex(pinned->digest))
            << name << " policy=" << static_cast<int>(policy)
            << " pool=" << static_cast<int>(pool);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedRunDigests));
}

// ------------------------------------------------------------ golden file

TEST(SimOperationalGolden, Fig13OperationalCsvMatchesGoldenFile) {
  campaign::ParseResult parsed = campaign::parse_campaign_spec(
      campaign::builtin_campaign("fig13_operational"));
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  campaign::CampaignRunner runner(std::move(*parsed.spec));
  std::ostringstream csv_out;
  campaign::CsvSink csv(csv_out);
  runner.add_sink(csv);
  runner.run();

  const std::string path =
      std::string(DMFB_SOURCE_DIR) + "/tests/golden/fig13_operational.csv";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << "missing " << path;
  std::ostringstream golden;
  golden << file.rdbuf();
  EXPECT_EQ(csv_out.str(), golden.str())
      << "campaign CSV drifted from " << path
      << " (regenerate with: dmfb_campaign builtin:fig13_operational)";
}

}  // namespace
}  // namespace dmfb::sim
