// google-benchmark micro-benchmarks for the performance-critical kernels:
// maximum matching (CSR matcher, Hopcroft-Karp), one Monte-Carlo yield
// run, v1 Bernoulli injection (scalar and lock-step), droplet routing, and
// the covering-walk test planner.
#include <benchmark/benchmark.h>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fluidics/router.hpp"
#include "graph/csr_matching.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/lockstep_bernoulli.hpp"
#include "sim/session.hpp"
#include "testplan/stimulus_test.hpp"

namespace {

using namespace dmfb;

graph::CsrBipartiteGraph random_bipartite(std::int32_t left,
                                          std::int32_t right, double edge_prob,
                                          std::uint64_t seed) {
  Rng rng(seed);
  graph::CsrBipartiteGraph g;
  for (std::int32_t a = 0; a < left; ++a) {
    g.open_row();
    for (std::int32_t b = 0; b < right; ++b) {
      if (rng.bernoulli(edge_prob)) g.add_edge(b);
    }
  }
  return g;
}

void BM_Matching(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto g = random_bipartite(n, n, 8.0 / n, 42);
  graph::CsrMatcher matcher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.maximum_matching_size(g));
  }
  state.SetComplexityN(n);
}

void BM_McYieldRun(benchmark::State& state) {
  auto array = biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6,
      static_cast<std::int32_t>(state.range(0)));
  const auto model = sim::FaultModel::bernoulli(0.93);
  const reconfig::LocalReconfigurer reconfigurer;
  Rng rng(7);
  for (auto _ : state) {
    sim::inject(model, array, rng);
    benchmark::DoNotOptimize(reconfigurer.feasible(array));
    array.reset_health();
  }
}

void BM_McYieldThreads(benchmark::State& state) {
  // Full Session experiment (2000 runs on a ~250-primary DTMB(2,6) array)
  // on a fresh Session per iteration, so every iteration simulates instead
  // of hitting the query cache. Successes are identical for every thread
  // count; items/s is the MC-run throughput, so the 4-thread row should
  // show >= 2x the 1-thread rate on a multi-core host.
  const auto array = biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6, 250);
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.93);
  query.runs = 2000;
  query.threads = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    sim::Session session(array);
    benchmark::DoNotOptimize(session.run(query).successes);
  }
  state.SetItemsProcessed(state.iterations() * query.runs);
}

// v1 Bernoulli injection plus reset per run, no repair, on one fig9 point:
// DTMB(3,6), 120 primaries, p = 0.90. The scalar row is sim::inject per
// run; the lock-step row injects lane batches as Session's v1 loop does,
// labelled with the ISA build this CPU picked ("scalar" when it has none).
// items/s is runs per second; the fault sets are identical.
constexpr double kInjectSurvival = 0.90;
constexpr std::uint64_t kInjectSeed = 3;

std::shared_ptr<const sim::ChipDesign> inject_bench_design() {
  return sim::ChipDesign::make(biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb3_6, 120));
}

void BM_InjectV1_Scalar(benchmark::State& state) {
  sim::FaultState faults(inject_bench_design());
  const sim::FaultModel model = sim::FaultModel::bernoulli(kInjectSurvival);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kInjectSeed, run++);
    sim::inject(model, faults, rng);
    benchmark::DoNotOptimize(faults.faulty_count());
    faults.reset();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("scalar");
}

void BM_InjectV1_Lockstep(benchmark::State& state) {
  const auto design = inject_bench_design();
  sim::FaultState faults(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(kInjectSurvival);
  const sim::LockstepKernel* kernel = sim::lockstep_kernel_for(model);
  if (kernel == nullptr) {  // Session keeps the scalar loop; so does the row
    BM_InjectV1_Scalar(state);
    return;
  }
  sim::LockstepBernoulli batch(*kernel, design->cell_count(),
                               1.0 - model.param);
  std::int32_t run = 0;
  for (auto _ : state) {
    for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
      batch.load(lane, sim::run_stream(kInjectSeed, run + lane));
    }
    batch.draw();
    for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
      (void)batch.inject(lane, faults);
      benchmark::DoNotOptimize(faults.faulty_count());
      faults.reset();
    }
    run += batch.lanes();
  }
  state.SetItemsProcessed(state.iterations() * batch.lanes());
  state.SetLabel(kernel->isa);
}

void BM_SingleDropletRoute(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const biochip::HexArray array(
      hex::Region::parallelogram(side, side),
      [](hex::HexCoord) { return biochip::CellRole::kPrimary; });
  const fluidics::UsableCells usable(array);
  const fluidics::Router router(usable);
  const auto from = array.region().index_of({0, 0});
  const auto to = array.region().index_of({side - 1, side - 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.shortest_route(from, to).size());
  }
}

// Same array and endpoints as BM_SingleDropletRoute, counted on the bitmap.
void BM_HopCount(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const biochip::HexArray array(
      hex::Region::parallelogram(side, side),
      [](hex::HexCoord) { return biochip::CellRole::kPrimary; });
  const fluidics::HopGrid grid(array);
  fluidics::HopGrid::Scratch scratch;
  const auto from = array.region().index_of({0, 0});
  const auto to = array.region().index_of({side - 1, side - 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        grid.hops(grid.primary_words(), from, to, scratch));
  }
}

void BM_CoveringWalk(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const auto array =
      biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(testplan::plan_covering_walk(array, 0).size());
  }
}

}  // namespace

BENCHMARK(BM_Matching)
    ->Name("BM_Matching/hopcroft_karp")
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK(BM_McYieldRun)->Arg(100)->Arg(250)->Arg(500);
BENCHMARK(BM_McYieldThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InjectV1_Scalar);
BENCHMARK(BM_InjectV1_Lockstep);
BENCHMARK(BM_SingleDropletRoute)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_HopCount)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_CoveringWalk)->Arg(16)->Arg(32);
