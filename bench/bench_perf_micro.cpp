// google-benchmark micro-benchmarks for the performance-critical kernels:
// maximum matching (CSR matcher, Hopcroft-Karp), one Monte-Carlo yield
// run, v1 Bernoulli injection (scalar and lock-step), v2 Bernoulli
// injection (scalar and SIMD gaps), droplet routing and hop counting (one
// pair, and batches on the multiplexed chip), and the covering-walk test
// planner.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fluidics/router.hpp"
#include "graph/csr_matching.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/geometric_gaps.hpp"
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
// run; the lock-step row injects lane batches as Session's v1 loop does
// (over-drawn SIMD phase A, word-parallel phase B, scalar fallback),
// labelled with the ISA build this CPU picked ("scalar" when it has none).
// items/s is runs per second; the fault sets and the draws each run
// consumes are identical.
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
  const double q = 1.0 - model.param;
  sim::LockstepBernoulli batch(*kernel, design->cell_count(), {&q, 1});
  std::int32_t run = 0;
  for (auto _ : state) {
    for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
      batch.load(lane, sim::run_stream(kInjectSeed, run + lane));
    }
    batch.draw();
    for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
      benchmark::DoNotOptimize(batch.inject(0, lane, faults));
      faults.reset();
    }
    run += batch.lanes();
  }
  state.SetItemsProcessed(state.iterations() * batch.lanes());
  state.SetLabel(kernel->isa);
}

// Lock-step v1 injection plus reset over fig9's nine survival
// probabilities on the same fig9 design, T per LockstepBernoulli: T = 1 is
// nine separate queries (nine phase As per lane batch), T = 9 one sweep
// (Session::run_sweep's shared pass: one phase A, then phase B for each
// member). items/s counts (run, point) pairs, so the rows compare per
// point on the same work.
void BM_LockstepSweep(benchmark::State& state) {
  constexpr double kFig9Survival[] = {0.80, 0.85, 0.88, 0.90, 0.92,
                                      0.94, 0.96, 0.98, 0.99};
  const auto design = inject_bench_design();
  sim::FaultState faults(design);
  const sim::LockstepKernel* kernel =
      sim::lockstep_kernel_for(sim::FaultModel::bernoulli(kInjectSurvival));
  if (kernel == nullptr) {
    state.SkipWithError("no lock-step kernel on this CPU");
    return;
  }
  const auto members = static_cast<std::size_t>(state.range(0));
  std::vector<sim::LockstepBernoulli> batches;
  for (std::size_t first = 0; first < std::size(kFig9Survival);
       first += members) {
    std::vector<double> fault_probs;
    for (std::size_t t = first; t < first + members; ++t) {
      fault_probs.push_back(1.0 - kFig9Survival[t]);
    }
    batches.emplace_back(*kernel, design->cell_count(), fault_probs);
  }
  std::int32_t run = 0;
  for (auto _ : state) {
    for (sim::LockstepBernoulli& batch : batches) {
      for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
        batch.load(lane, sim::run_stream(kInjectSeed, run + lane));
      }
      batch.draw();
      for (std::int32_t member = 0; member < batch.members(); ++member) {
        for (std::int32_t lane = 0; lane < batch.lanes(); ++lane) {
          benchmark::DoNotOptimize(batch.inject(member, lane, faults));
          faults.reset();
        }
      }
    }
    run += kernel->lanes;
  }
  state.SetItemsProcessed(state.iterations() * kernel->lanes *
                          static_cast<std::int64_t>(std::size(kFig9Survival)));
  state.SetLabel(kernel->isa);
}

// v2 Bernoulli skip-sampling plus reset per run, no repair, on the fig9
// design of BM_InjectV1_* at p = range(0) / 100 (fig9 spans 0.80-0.99):
// each fault is marked on a FaultState and consumes one draw, as in
// sim::inject_v2. The scalar row is skip_sample_bernoulli; the gap row is
// skip_sample_gaps through default_gap_kernel() (skipped on a CPU without
// one), with no kMinGapKernelFaults cut, so p = 0.99 shows the kernel below
// the point where inject_v2 takes it. Runs are those of one Session query;
// both rows give the same fault sets and final cursors. items/s is runs
// per second.
void BM_InjectV2_Scalar(benchmark::State& state) {
  sim::FaultState faults(inject_bench_design());
  const double prob = 1.0 - static_cast<double>(state.range(0)) / 100.0;
  std::int32_t run = 0;
  for (auto _ : state) {
    CounterStream stream = sim::run_stream_v2(kInjectSeed, run++);
    skip_sample_bernoulli(stream, faults.design().cell_count(), prob,
                          [&](std::int32_t cell) {
                            faults.set_faulty_ascending(cell);
                            stream.skip(1);
                          });
    benchmark::DoNotOptimize(stream.cursor());
    faults.reset();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("scalar");
}

void BM_InjectV2_Gaps(benchmark::State& state) {
  const sim::GapKernel* kernel = sim::default_gap_kernel();
  if (kernel == nullptr) {
    state.SkipWithError("this CPU has no gap kernel");
    return;
  }
  sim::FaultState faults(inject_bench_design());
  const double prob = 1.0 - static_cast<double>(state.range(0)) / 100.0;
  std::int32_t run = 0;
  for (auto _ : state) {
    CounterStream stream = sim::run_stream_v2(kInjectSeed, run++);
    benchmark::DoNotOptimize(sim::skip_sample_gaps(
        *kernel, stream, faults.design().cell_count(), prob,
        [&](std::int32_t cell) { faults.set_faulty_ascending(cell); }));
    benchmark::DoNotOptimize(stream.cursor());
    faults.reset();
  }
  state.SetItemsProcessed(state.iterations());
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

// Same array and endpoints as BM_SingleDropletRoute, counted on the bitmap:
// one lane of the hop-count kernel HopGrid picked (the label).
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
  state.SetLabel(fluidics::default_hop_kernel().isa);
}

// The batch entry as the operational kernel calls it: range(0) pairs on one
// usable bitmap per call, on the multiplexed chip's primaries with 16 cells
// faulted (fixed seed) so that routes detour. Pairs are random usable
// primaries, 64 drawn once and taken in turn; items are pairs.
void BM_HopCount_Batch(benchmark::State& state) {
  const biochip::HexArray array = assay::make_multiplexed_chip().array;
  const fluidics::HopGrid grid(array);
  std::vector<std::uint64_t> usable(grid.primary_words().begin(),
                                    grid.primary_words().end());
  Rng rng(13);
  const auto any_cell = [&] {
    return static_cast<hex::CellIndex>(
        rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
  };
  std::vector<hex::CellIndex> faulty;
  while (faulty.size() < 16) {
    const hex::CellIndex cell = any_cell();
    if (array.role(cell) != biochip::CellRole::kPrimary) continue;
    grid.clear(usable, cell);
    faulty.push_back(cell);
  }
  const auto is_usable = [&](hex::CellIndex cell) {
    return array.role(cell) == biochip::CellRole::kPrimary &&
           std::find(faulty.begin(), faulty.end(), cell) == faulty.end();
  };
  std::vector<fluidics::HopGrid::Pair> pairs;
  while (pairs.size() < 64) {
    const fluidics::HopGrid::Pair pair{any_cell(), any_cell()};
    if (pair.from != pair.to && is_usable(pair.from) && is_usable(pair.to)) {
      pairs.push_back(pair);
    }
  }
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> out(batch);
  fluidics::HopGrid::Scratch scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    grid.hops(usable, {pairs.data() + next, batch}, out, scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    next = (next + batch) % pairs.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
  state.SetLabel(fluidics::default_hop_kernel().isa);
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
BENCHMARK(BM_LockstepSweep)->Arg(1)->Arg(9);
BENCHMARK(BM_InjectV2_Scalar)->Arg(80)->Arg(90)->Arg(99);
BENCHMARK(BM_InjectV2_Gaps)->Arg(80)->Arg(90)->Arg(99);
BENCHMARK(BM_SingleDropletRoute)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_HopCount)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_HopCount_Batch)->Arg(1)->Arg(4)->Arg(8);
BENCHMARK(BM_CoveringWalk)->Arg(16)->Arg(32);
