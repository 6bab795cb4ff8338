// Differential fuzz: the SIMD geometric-gap kernel against the scalar v2
// skip-sampling loop. The AVX2 kernel where this CPU runs it, plus the
// filter built at the default ISA (4 and 8 lanes), must give the scalar
// loop's faults in the same order and leave the stream at the same cursor;
// inject_v2 on a FaultState, which uses the AVX2 kernel where it can, must
// also flush the same fault.* counters.
//
// Random streams almost never reach the exact fallback (an integer lies in
// the filter's bracket with probability about 2 tau x per gap), so the
// boundary probes drive the filter on chosen uniforms instead: for each
// fault probability and each n <= 400, the smallest 53-bit uniform whose
// exact gap reaches n (found by bisection) and its three neighbours on
// each side. Those straddle an integer, and n = 400 = count straddles the
// end of the run, so the exact path is taken there, a floor checks that it
// was, and every probe must resolve to the exact gap.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/parametric.hpp"
#include "hexgrid/region.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/geometric_gaps.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

constexpr std::int32_t kCounts[] = {1, 63, 64, 65, 100, 484, 5000};
/// The nine fig9 fault probabilities q = 1 - p, then the extremes.
constexpr double kFaultProbs[] = {0.20, 0.15, 0.12, 0.10, 0.08, 0.06,
                                  0.04, 0.02, 0.01, 1e-6, 0.5,  0.999,
                                  1e-300};
constexpr std::int32_t kKeysPerCase = 64;

std::vector<GapKernel> kernels_under_test() {
  std::vector<GapKernel> kernels = {generic_gap_kernel<4>(),
                                    generic_gap_kernel<8>()};
  if (const GapKernel* kernel = default_gap_kernel()) {
    kernels.push_back(*kernel);
  }
  return kernels;
}

std::string name_of(const GapKernel& kernel) {
  return std::string(kernel.isa) + "x" + std::to_string(kernel.lanes);
}

/// A one-row all-primary array of exactly `cells` cells.
std::shared_ptr<const ChipDesign> row_design(std::int32_t cells) {
  return ChipDesign::make(biochip::HexArray(
      hex::Region::parallelogram(cells, 1),
      [](hex::HexCoord) { return biochip::CellRole::kPrimary; }));
}

/// The faults and final cursor of one skip-sampled run, each fault
/// consuming one draw as the bitmap sink does.
struct Sampled {
  std::vector<std::int32_t> cells;
  std::uint64_t cursor = 0;
};

Sampled scalar_run(std::uint64_t key, std::int32_t count, double prob) {
  Sampled out;
  CounterStream stream(key);
  skip_sample_bernoulli(stream, count, prob, [&](std::int32_t cell) {
    out.cells.push_back(cell);
    stream.skip(1);
  });
  out.cursor = stream.cursor();
  return out;
}

/// The same through `kernel`, which skips the faults' draws in bulk.
Sampled kernel_run(const GapKernel& kernel, std::uint64_t key,
                   std::int32_t count, double prob) {
  Sampled out;
  CounterStream stream(key);
  const std::int64_t faults = skip_sample_gaps(
      kernel, stream, count, prob,
      [&](std::int32_t cell) { out.cells.push_back(cell); });
  EXPECT_EQ(faults, static_cast<std::int64_t>(out.cells.size()));
  out.cursor = stream.cursor();
  return out;
}

TEST(GeometricGaps, EveryKernelMatchesScalarSkipSampling) {
  std::uint64_t seed = 0x6a9;
  for (const GapKernel& kernel : kernels_under_test()) {
    for (const std::int32_t count : kCounts) {
      for (const double prob : kFaultProbs) {
        for (std::int32_t k = 0; k < kKeysPerCase; ++k) {
          const std::uint64_t key = splitmix64(seed);
          const Sampled scalar = scalar_run(key, count, prob);
          const Sampled gaps = kernel_run(kernel, key, count, prob);
          ASSERT_EQ(gaps.cells, scalar.cells)
              << name_of(kernel) << " count=" << count << " q=" << prob
              << " key=" << key;
          ASSERT_EQ(gaps.cursor, scalar.cursor)
              << name_of(kernel) << " count=" << count << " q=" << prob
              << " key=" << key;
          ASSERT_EQ(gaps.cursor, 2 * gaps.cells.size() + 1);
        }
      }
    }
  }
}

TEST(GeometricGaps, RunsFromAMidStreamCursorMatchScalar) {
  // A gap's draw is addressed from the cursor the run starts at, not 0.
  for (const GapKernel& kernel : kernels_under_test()) {
    for (const std::uint64_t start : {1ULL, 7ULL, 1000ULL}) {
      CounterStream scalar(99);
      CounterStream gaps(99);
      scalar.skip(start);
      gaps.skip(start);
      std::vector<std::int32_t> scalar_cells;
      std::vector<std::int32_t> gap_cells;
      skip_sample_bernoulli(scalar, 484, 0.1, [&](std::int32_t cell) {
        scalar_cells.push_back(cell);
        scalar.skip(1);
      });
      ASSERT_GE(skip_sample_gaps(
                    kernel, gaps, 484, 0.1,
                    [&](std::int32_t cell) { gap_cells.push_back(cell); }),
                0);
      EXPECT_EQ(gap_cells, scalar_cells) << name_of(kernel);
      EXPECT_EQ(gaps.cursor(), scalar.cursor()) << name_of(kernel);
    }
  }
}

TEST(GeometricGaps, UnsuitedProbabilitiesLeaveTheScalarLoopInCharge) {
  const GapKernel kernel = generic_gap_kernel<4>();
  // 5e-324: log1p(-q) is the denormal -q and 1 / denom overflows to -inf.
  for (const double prob :
       {0.0, -0.5, 1.0, 1.5, 5e-324,
        std::numeric_limits<double>::quiet_NaN()}) {
    CounterStream stream(3);
    std::int32_t calls = 0;
    EXPECT_EQ(skip_sample_gaps(kernel, stream, 100, prob,
                               [&](std::int32_t) { ++calls; }),
              -1)
        << prob;
    EXPECT_EQ(stream.cursor(), 0u) << prob;
    EXPECT_EQ(calls, 0);
  }
  CounterStream stream(3);
  EXPECT_EQ(skip_sample_gaps(kernel, stream, 0, 0.5, [](std::int32_t) {}),
            -1);
  EXPECT_EQ(stream.cursor(), 0u);
}

/// The fault cells, final cursor and fault.* counters of a batch of runs.
struct Injected {
  std::vector<std::vector<std::int32_t>> cells;
  std::vector<std::uint64_t> cursors;
  std::vector<std::int64_t> counters;
};

constexpr obs::Metric kInjectMetrics[] = {
    obs::Metric::kInjectRuns, obs::Metric::kInjectCellsFaulted,
    obs::Metric::kInjectCellTrials, obs::Metric::kInjectClassificationDraws};

constexpr std::uint64_t kInjectSeed = 17;

/// `runs` runs of `model` through inject_v2 on a FaultState of `design`.
Injected inject_runs(const FaultModel& model,
                     const std::shared_ptr<const ChipDesign>& design,
                     std::int32_t runs) {
  obs::Registry registry;
  registry.install();
  Injected out;
  FaultState state(design);
  for (std::int32_t run = 0; run < runs; ++run) {
    CounterStream stream = run_stream_v2(kInjectSeed, run);
    inject_v2(model, state, stream);
    out.cells.push_back(state.faulty_cells());
    out.cursors.push_back(stream.cursor());
    state.reset();
  }
  registry.uninstall();
  const obs::Snapshot snapshot = registry.snapshot();
  for (const obs::Metric metric : kInjectMetrics) {
    out.counters.push_back(snapshot.counter(metric));
  }
  return out;
}

/// The same runs from the scalar loop at fault probability `prob` over
/// `count` cells, each fault consuming one draw, with the counters the
/// bitmap sink flushes: per run one injection, and per fault one skipped
/// classification or attribution draw, counted as a trial too.
Injected scalar_runs(double prob, std::int32_t count, std::int32_t runs) {
  Injected out;
  std::int64_t faults = 0;
  for (std::int32_t run = 0; run < runs; ++run) {
    CounterStream stream = run_stream_v2(kInjectSeed, run);
    std::vector<std::int32_t> cells;
    skip_sample_bernoulli(stream, count, prob, [&](std::int32_t cell) {
      cells.push_back(cell);
      stream.skip(1);
    });
    faults += static_cast<std::int64_t>(cells.size());
    out.cells.push_back(std::move(cells));
    out.cursors.push_back(stream.cursor());
  }
  out.counters = {runs, faults, faults, faults};
  return out;
}

TEST(GeometricGaps, FaultStateInjectionMatchesTheScalarLoop) {
  // inject_v2 takes the default kernel's gaps wherever the CPU has it and
  // a run expects kMinGapKernelFaults or more; every case must still read
  // as the scalar loop, counters included.
  constexpr std::int32_t kRuns = 40;
  std::vector<std::pair<FaultModel, double>> models;  // and fault prob
  for (const double prob : kFaultProbs) {
    // The model's own q: 1 - (1 - 1e-300) is 0.
    const FaultModel model = FaultModel::bernoulli(1.0 - prob);
    models.emplace_back(model, 1.0 - model.param);
  }
  for (const double sigma : {0.8, 1.2, 2.0}) {
    models.emplace_back(
        FaultModel::parametric(sigma),
        fault::ProcessSpec::typical().scaled(sigma).cell_fault_probability());
  }
  for (const std::int32_t count : kCounts) {
    const auto design = row_design(count);
    for (const auto& [model, prob] : models) {
      const std::string where = "count=" + std::to_string(count) +
                                " param=" + std::to_string(model.param);
      const Injected scalar = scalar_runs(prob, count, kRuns);
      const Injected injected = inject_runs(model, design, kRuns);
      ASSERT_EQ(injected.cells, scalar.cells) << where;
      ASSERT_EQ(injected.cursors, scalar.cursors) << where;
      ASSERT_EQ(injected.counters, scalar.counters) << where;
    }
  }
}

TEST(GeometricGaps, DefaultKernelIsTheAvx2BuildWhereTheCpuRunsIt) {
  const GapKernel* kernel = default_gap_kernel();
  EXPECT_EQ(default_gap_kernel(), kernel);  // detected once
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  const bool avx2 = false;
#endif
  if (!avx2) {
    EXPECT_EQ(kernel, nullptr);
    return;
  }
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->lanes, 4);
  EXPECT_STREQ(kernel->isa, "avx2");
}

constexpr std::int64_t kProbeCount = 400;
constexpr std::uint64_t kUniforms = std::uint64_t{1} << 53;

double uniform_of(std::uint64_t k) {
  return static_cast<double>(k) * 0x1.0p-53;
}

/// The smallest k < 2^53 whose uniform's exact gap reaches n, or 2^53
/// when none does. The exact gap is monotone in u.
std::uint64_t first_reaching(std::int64_t n, double denom) {
  constexpr std::int64_t kNoEnd = std::int64_t{1} << 62;
  std::uint64_t lo = 0;
  std::uint64_t hi = kUniforms;  // gap(uniform_of(hi)) >= n, by convention
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (geometric_gap(uniform_of(mid), denom, kNoEnd) >= n) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(GeometricGaps, BoundaryProbesResolveToTheExactGap) {
  // Per kernel, summed over the fault probabilities: the probes that took
  // the exact path. 20,497 of the 26,496 probes do, at every kernel (u = 0
  // included); where one ulp of u moves the gap by more than tau, a probe
  // settles instead. The floor fails if the filter stops sending the
  // boundaries to the exact path.
  constexpr std::int64_t kMinExactFallbacks = 10000;
  for (const GapKernel& kernel : kernels_under_test()) {
    std::int64_t fallbacks = 0;
    std::int64_t probes = 0;
    for (const double prob : kFaultProbs) {
      const double denom = std::log1p(-prob);
      const double inv_denom = 1.0 / denom;
      std::vector<double> uniforms;
      for (std::int64_t n = 1; n <= kProbeCount; ++n) {
        const std::uint64_t edge = first_reaching(n, denom);
        if (edge == kUniforms) break;  // no uniform reaches n, nor n + 1
        for (std::int64_t d = -3; d <= 3; ++d) {
          const auto k = static_cast<std::int64_t>(edge) + d;
          if (k < 0 || k >= static_cast<std::int64_t>(kUniforms)) continue;
          uniforms.push_back(uniform_of(static_cast<std::uint64_t>(k)));
        }
      }
      while (uniforms.size() % kMaxGapBlock != 0) uniforms.push_back(0.0);
      std::vector<double> codes(uniforms.size());
      kernel.of_uniforms(uniforms.data(),
                         static_cast<std::int32_t>(uniforms.size()),
                         inv_denom, static_cast<double>(kProbeCount),
                         codes.data());
      for (std::size_t i = 0; i < uniforms.size(); ++i) {
        const std::int64_t exact =
            geometric_gap(uniforms[i], denom, kProbeCount);
        std::int64_t gap = 0;
        if (codes[i] == kGapExact) {
          ++fallbacks;
          gap = exact;
        } else {
          gap = static_cast<std::int64_t>(codes[i]);
          ASSERT_EQ(static_cast<double>(gap), codes[i]);
        }
        ASSERT_EQ(gap, exact) << name_of(kernel) << " q=" << prob
                              << " u=" << uniforms[i];
        ++probes;
      }
    }
    EXPECT_GE(fallbacks, kMinExactFallbacks)
        << name_of(kernel) << " over " << probes << " probes";
  }
}

TEST(GeometricGaps, RandomUniformsSettleAlmostAlways) {
  // The filter is exact whatever it settles; this checks it settles: on
  // random draws at fig9 densities the exact path is rare.
  constexpr std::int64_t kFar = 1'000'000'000;
  std::uint64_t seed = 11;
  for (const GapKernel& kernel : kernels_under_test()) {
    std::int64_t fallbacks = 0;
    std::int64_t total = 0;
    for (const double prob : {0.2, 0.1, 0.01}) {
      const double denom = std::log1p(-prob);
      std::vector<double> uniforms(1024);
      for (double& u : uniforms) u = uniform_of(splitmix64(seed) >> 11);
      std::vector<double> codes(uniforms.size());
      kernel.of_uniforms(uniforms.data(),
                         static_cast<std::int32_t>(uniforms.size()),
                         1.0 / denom, static_cast<double>(kFar),
                         codes.data());
      for (std::size_t i = 0; i < uniforms.size(); ++i) {
        const std::int64_t exact = geometric_gap(uniforms[i], denom, kFar);
        if (codes[i] == kGapExact) {
          ++fallbacks;
        } else {
          ASSERT_EQ(static_cast<std::int64_t>(codes[i]), exact);
        }
        ++total;
      }
    }
    EXPECT_LE(fallbacks, total / 100) << name_of(kernel);
  }
}

}  // namespace
}  // namespace dmfb::sim
