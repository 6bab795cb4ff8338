// google-benchmark micro-benchmarks for the performance-critical kernels:
// maximum matching (CSR matcher, one row per engine), one Monte-Carlo yield
// run, droplet routing, and the covering-walk test planner.
#include <benchmark/benchmark.h>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fluidics/router.hpp"
#include "graph/csr_matching.hpp"
#include "reconfig/local_reconfig.hpp"
#include "testplan/stimulus_test.hpp"
#include "yield/monte_carlo.hpp"

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

void BM_Matching(benchmark::State& state, graph::MatchingEngine engine) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const auto g = random_bipartite(n, n, 8.0 / n, 42);
  graph::CsrMatcher matcher;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.maximum_matching_size(g, engine));
  }
  state.SetComplexityN(n);
}

void BM_McYieldRun(benchmark::State& state) {
  auto array = biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6,
      static_cast<std::int32_t>(state.range(0)));
  const fault::BernoulliInjector injector(0.93);
  const reconfig::LocalReconfigurer reconfigurer;
  Rng rng(7);
  for (auto _ : state) {
    injector.inject(array, rng);
    benchmark::DoNotOptimize(reconfigurer.feasible(array));
    array.reset_health();
  }
}

void BM_McYieldThreads(benchmark::State& state) {
  // Full mc_yield_bernoulli experiment (2000 runs on a ~250-primary
  // DTMB(2,6) array) under the threaded engine. Successes are identical for
  // every thread count; items/s is the MC-run throughput, so the 4-thread
  // row should show >= 2x the 1-thread rate on a multi-core host.
  auto array = biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6, 250);
  yield::McOptions options;
  options.runs = 2000;
  options.threads = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        yield::mc_yield_bernoulli(array, 0.93, options).successes);
  }
  state.SetItemsProcessed(state.iterations() * options.runs);
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

BENCHMARK_CAPTURE(BM_Matching, hopcroft_karp,
                  dmfb::graph::MatchingEngine::kHopcroftKarp)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK_CAPTURE(BM_Matching, kuhn, dmfb::graph::MatchingEngine::kKuhn)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK_CAPTURE(BM_Matching, dinic, dmfb::graph::MatchingEngine::kDinic)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK_CAPTURE(BM_Matching, push_relabel,
                  dmfb::graph::MatchingEngine::kPushRelabel)
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
BENCHMARK(BM_SingleDropletRoute)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_HopCount)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_CoveringWalk)->Arg(16)->Arg(32);
