#include "sim/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"
#include "fault/parametric.hpp"
#include "hexgrid/hex_coord.hpp"
#include "hexgrid/region.hpp"
#include "obs/metrics.hpp"
#include "sim/geometric_gaps.hpp"

namespace dmfb::sim {

namespace {

// Injection cores: one per (fault kind, draw contract), overloaded on the
// stream (Rng is the v1 serial contract, CounterStream the v2 counter
// contract; common/rng.hpp). A core walks the draws of one kind and hands
// each fault to a sink:
//  * bernoulli — v1: one trial draw per cell (bernoulli_trials). v2:
//    geometric skip-sampling, one draw per fault plus one overshoot draw
//    (skip_sample).
//  * fixed_count — v1: Rng::sample_without_replacement. v2: Floyd's
//    algorithm (fault::fixed_count_v2), one uniform_below per pick.
//  * clustered — one spot walk for both: a Poisson spot count, a uniform
//    centre per spot, then one kill trial per live cell of the spot's disk,
//    with probability decaying linearly from core to edge. Faulty cells are
//    skipped, so later spots and later mixture components see earlier kills.
//  * parametric — v1: three Gaussian deviates per cell, the worst
//    out-of-tolerance one attributed. v2: skip-sampling at the closed-form
//    cell_fault_probability(), then one attribution draw per fault.
//
// Sink contract. A sink exposes cell_count(), region() and is_faulty(cell)
// and receives:
//  * trials(n) — n per-cell trials were evaluated (a tally; no draw);
//  * catastrophic(cell, stream) — consumes exactly one draw, the defect
//    classification;
//  * parametric(cell, stream, spec) — v2; consumes exactly one draw, the
//    attribution;
//  * parametric(cell, parameter, deviation) — v1; the fault's draws were
//    the core's deviates, so the sink consumes none.
// The draw is consumed even when the cell is already faulty, which keeps
// every later draw aligned; the first faulter keeps the cell. A sink also
// declares kGapKernel: whether a v2 run may take its gaps from a SIMD gap
// kernel (skip_sample below; only the standalone bitmap sink may).

fault::ProcessSpec parametric_spec(const FaultModel& model) {
  return fault::ProcessSpec::typical().scaled(model.param);
}

template <typename Sink>
void bernoulli_core(const FaultModel& model, Rng& rng, Sink& sink) {
  sink.trials(sink.cell_count());
  bernoulli_trials(rng, sink.cell_count(), 1.0 - model.param,
                   [&](std::int32_t cell, Rng& draws) {
                     sink.catastrophic(cell, draws);
                   });
}

/// v2 geometric skip-sampling at fault probability `prob` over the sink's
/// cells. A sink that allows it (kGapKernel) takes its gaps from
/// default_gap_kernel() (sim/geometric_gaps.hpp), where the CPU has one,
/// when the run expects kMinGapKernelFaults or more faults and `prob`
/// suits the kernel: the sink marks each fault and then tallies the draws
/// the kernel skipped in bulk, the same marks and tallies on_index makes
/// per fault. Otherwise the scalar skip_sample_bernoulli loop runs
/// on_index. Both give the same faults, cursor and tallies.
template <typename Sink, typename OnIndex>
void skip_sample(Sink& sink, CounterStream& stream, double prob,
                 OnIndex&& on_index) {
  if constexpr (Sink::kGapKernel) {
    const GapKernel* kernel = default_gap_kernel();
    if (kernel != nullptr &&
        prob * static_cast<double>(sink.cell_count()) >= kMinGapKernelFaults) {
      const std::int64_t faults =
          skip_sample_gaps(*kernel, stream, sink.cell_count(), prob,
                           [&](std::int32_t cell) { sink.mark(cell); });
      if (faults >= 0) {
        sink.skipped_draws(faults);
        return;
      }
    }
  }
  skip_sample_bernoulli(stream, sink.cell_count(), prob, on_index);
}

template <typename Sink>
void bernoulli_core(const FaultModel& model, CounterStream& stream,
                    Sink& sink) {
  skip_sample(sink, stream, 1.0 - model.param, [&](std::int32_t cell) {
    sink.catastrophic(cell, stream);
  });
}

template <typename Sink>
void fixed_count_core(const FaultModel& model, Rng& rng, Sink& sink) {
  const auto count = static_cast<std::int32_t>(model.param);
  DMFB_EXPECTS(count <= sink.cell_count());
  sink.trials(count);
  for (const std::int32_t cell :
       rng.sample_without_replacement(sink.cell_count(), count)) {
    sink.catastrophic(cell, rng);
  }
}

template <typename Sink>
void fixed_count_core(const FaultModel& model, CounterStream& stream,
                      Sink& sink) {
  fault::fixed_count_v2(
      stream, sink.cell_count(), static_cast<std::int32_t>(model.param),
      [&](std::int32_t cell) { sink.catastrophic(cell, stream); });
}

/// The spot walk is serial (later spots see earlier kills through
/// is_faulty), and costs O(spot area), not O(cells), under both contracts.
template <typename Stream, typename Sink>
void clustered_core(const FaultModel& model, Stream& stream, Sink& sink) {
  const hex::Region& region = sink.region();
  const ClusterShape& shape = model.cluster;
  const std::int32_t spots = fault::sample_poisson(model.param, stream);
  for (std::int32_t spot = 0; spot < spots; ++spot) {
    const auto center_index = static_cast<std::int32_t>(
        stream.uniform_below(static_cast<std::uint64_t>(sink.cell_count())));
    const hex::HexCoord center = region.coord_at(center_index);
    for (const hex::HexCoord at : hex::disk(center, shape.radius)) {
      const hex::CellIndex cell = region.index_of(at);
      if (cell == hex::kInvalidCell) continue;  // spot clipped by boundary
      if (sink.is_faulty(cell)) continue;
      const double t = shape.radius == 0
                           ? 0.0
                           : static_cast<double>(hex::distance(center, at)) /
                                 static_cast<double>(shape.radius);
      const double kill_prob =
          shape.core_kill + (shape.edge_kill - shape.core_kill) * t;
      sink.trials(1);
      if (stream.bernoulli(kill_prob)) sink.catastrophic(cell, stream);
    }
  }
}

template <typename Sink>
void parametric_core(const FaultModel& model, Rng& rng, Sink& sink) {
  const fault::ProcessSpec spec = parametric_spec(model);
  const std::int32_t cells = sink.cell_count();
  sink.trials(cells);
  for (std::int32_t cell = 0; cell < cells; ++cell) {
    const auto deviations = fault::sample_cell(spec, rng);
    const fault::Deviation* worst = nullptr;
    for (const fault::Deviation& deviation : deviations) {
      if (!deviation.out_of_tolerance) continue;
      if (worst == nullptr ||
          std::abs(deviation.value) > std::abs(worst->value)) {
        worst = &deviation;
      }
    }
    if (worst != nullptr) sink.parametric(cell, worst->parameter, worst->value);
  }
}

template <typename Sink>
void parametric_core(const FaultModel& model, CounterStream& stream,
                     Sink& sink) {
  const fault::ProcessSpec spec = parametric_spec(model);
  skip_sample(
      sink, stream, spec.cell_fault_probability(),
      [&](std::int32_t cell) { sink.parametric(cell, stream, spec); });
}

/// Dispatches one model onto its core; a mixture runs its components in
/// order on the same stream and sink, each consuming its full standalone
/// draw sequence.
template <typename Stream, typename Sink>
void inject_model(const FaultModel& model, Stream& stream, Sink& sink) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      bernoulli_core(model, stream, sink);
      return;
    case FaultModel::Kind::kFixedCount:
      fixed_count_core(model, stream, sink);
      return;
    case FaultModel::Kind::kClustered:
      clustered_core(model, stream, sink);
      return;
    case FaultModel::Kind::kParametric:
      parametric_core(model, stream, sink);
      return;
    case FaultModel::Kind::kMixture:
      for (const FaultModel& component : model.components) {
        inject_model(component, stream, sink);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

/// Draw tallies for one inject() call, kept in the sink so the loops stay
/// free of TLS lookups; flushed to obs once per call. Every field is a pure
/// function of (model, seed, run), hence a stable counter.
struct InjectTally {
  std::int64_t trials = 0;          ///< per-cell fault trials evaluated
  std::int64_t classification = 0;  ///< classification/attribution draws
};

/// FaultState sink for the cores above. It keeps no records, so it
/// consumes each fault's classification or attribution draw without
/// evaluating it: a raw draw under v1, skip(1) under v2. The bitmap's
/// idempotent set_faulty gives first-faulter-wins for mixtures.
///
/// Tally: under v1 `trials` counts the per-cell trials the core evaluated;
/// under v2 it counts fault candidates reaching the sink.
///
/// kAscending: the cells arrive in strictly ascending order on an empty
/// bitmap (a standalone Bernoulli or parametric model, under either
/// contract), so they append without the set_faulty membership probe. A
/// template parameter, not a member: a run-time branch in the per-cell
/// loop made v1 Bernoulli injection about 30% slower.
///
/// kGapKernel: a standalone v2 run (ascending) may take its gaps from a
/// gap kernel. The kernel addresses gap j's draw at start + 2j, which
/// holds because this sink consumes exactly one draw per fault; mixture
/// components take the probing sink.
template <typename Stream, bool kAscending>
class BitmapSink {
 public:
  static constexpr bool kV1 = std::is_same_v<Stream, Rng>;
  static constexpr bool kGapKernel = !kV1 && kAscending;

  explicit BitmapSink(FaultState& state) : state_(state) {
    DMFB_EXPECTS(state.faulty_count() == 0);
  }

  std::int32_t cell_count() const noexcept {
    return state_.design().cell_count();
  }
  const hex::Region& region() const noexcept {
    return state_.design().array().region();
  }
  bool is_faulty(CellIndex cell) const noexcept {
    return state_.is_faulty(cell);
  }

  void trials(std::int64_t count) noexcept {
    if constexpr (kV1) tally_.trials += count;
  }

  void catastrophic(CellIndex cell, Stream& stream) {
    consume_draw(stream);
    mark(cell);
  }

  void parametric(CellIndex cell, Stream& stream,
                  const fault::ProcessSpec& /*spec*/) {
    consume_draw(stream);
    mark(cell);
  }

  void parametric(CellIndex cell, fault::ParametricDefect /*parameter*/,
                  double /*deviation*/) {
    mark(cell);
  }

  /// The tallies of `faults` classification or attribution draws a gap
  /// kernel skipped in bulk (consume_draw's, without the skip itself).
  void skipped_draws(std::int64_t faults) noexcept {
    tally_.classification += faults;
    tally_.trials += faults;
  }

  void mark(CellIndex cell) {
    if constexpr (kAscending) {
      state_.set_faulty_ascending(cell);
    } else {
      state_.set_faulty(cell);
    }
  }

  /// One flush per call keeps the per-cell loops TLS-free; the guard makes
  /// the disabled default a single relaxed load.
  void flush() const {
    if (!obs::enabled()) return;
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, state_.faulty_count());
    obs::count(obs::Metric::kInjectCellTrials, tally_.trials);
    obs::count(obs::Metric::kInjectClassificationDraws, tally_.classification);
  }

 private:
  void consume_draw(Stream& stream) noexcept {
    ++tally_.classification;
    if constexpr (kV1) {
      (void)stream();
    } else {
      ++tally_.trials;
      stream.skip(1);
    }
  }

  FaultState& state_;
  InjectTally tally_;
};

/// HexArray sink: marks the array and records each fault with its sampled
/// classification or attribution. First faulter wins: a cell that is
/// already faulty keeps its record, but its draw is still consumed.
class RecordSink {
 public:
  /// The array must start healthy.
  explicit RecordSink(biochip::HexArray& array) : array_(array) {
    DMFB_EXPECTS(array.faulty_count() == 0);
  }

  std::int32_t cell_count() const noexcept { return array_.cell_count(); }
  const hex::Region& region() const noexcept { return array_.region(); }
  /// Records evaluate each fault's draws: always the scalar loop.
  static constexpr bool kGapKernel = false;
  bool is_faulty(hex::CellIndex cell) const {
    return array_.health(cell) == biochip::CellHealth::kFaulty;
  }

  void trials(std::int64_t /*count*/) noexcept {}

  template <typename Stream>
  void catastrophic(hex::CellIndex cell, Stream& stream) {
    fault::FaultRecord record;
    record.fault_class = fault::FaultClass::kCatastrophic;
    record.catastrophic = fault::sample_catastrophic_defect(stream);
    add(cell, record);
  }

  /// Recomputes the attribution weights per fault: only this record path
  /// pays for them, and the bitmap sink never does.
  void parametric(hex::CellIndex cell, CounterStream& stream,
                  const fault::ProcessSpec& spec) {
    const fault::ParameterSpec& param =
        spec.parameters[fault::pick_parametric_attribution_v2(
            fault::parametric_attribution_weights_v2(spec),
            stream.uniform01())];
    parametric(cell, param.parameter, param.tolerance);
  }

  void parametric(hex::CellIndex cell, fault::ParametricDefect parameter,
                  double deviation) {
    fault::FaultRecord record;
    record.fault_class = fault::FaultClass::kParametric;
    record.parametric = parameter;
    record.deviation = deviation;
    add(cell, record);
  }

  fault::FaultMap take() { return std::move(map_); }

 private:
  void add(hex::CellIndex cell, fault::FaultRecord record) {
    if (is_faulty(cell)) return;
    array_.set_health(cell, biochip::CellHealth::kFaulty);
    record.cell = cell;
    map_.records.push_back(record);
  }

  biochip::HexArray& array_;
  fault::FaultMap map_;
};

/// One run of `model` into `state`. Standalone Bernoulli and parametric
/// models visit cells in ascending order on the empty bitmap under both
/// contracts (per-cell trials under v1, skip-sampling under v2), so only
/// they run with the ascending sink; mixture components, fixed-count picks
/// and cluster spots take the probing one.
template <typename Stream>
void inject_into(const FaultModel& model, FaultState& state,
                 Stream& stream) {
  const auto run = [&](auto&& sink) {
    inject_model(model, stream, sink);
    sink.flush();
  };
  if (model.kind == FaultModel::Kind::kBernoulli ||
      model.kind == FaultModel::Kind::kParametric) {
    run(BitmapSink<Stream, /*kAscending=*/true>(state));
  } else {
    run(BitmapSink<Stream, /*kAscending=*/false>(state));
  }
}

template <typename Stream>
fault::FaultMap record_faults(const FaultModel& model,
                              biochip::HexArray& array, Stream& stream) {
  validate(model, array.cell_count());
  RecordSink sink(array);
  inject_model(model, stream, sink);
  return sink.take();
}

}  // namespace

FaultModel FaultModel::concrete(Kind kind, double param,
                                const ClusterShape& cluster) {
  switch (kind) {
    case Kind::kBernoulli: return bernoulli(param);
    case Kind::kFixedCount:
      return fixed_count(static_cast<std::int32_t>(param));
    case Kind::kClustered: return clustered(param, cluster);
    case Kind::kParametric: return parametric(param);
    case Kind::kMixture: break;
  }
  throw ContractViolation("FaultModel::concrete: a mixture is not a "
                          "concrete kind");
}

void validate(const FaultModel& model, std::int32_t cell_count) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      DMFB_EXPECTS(model.param >= 0.0 && model.param <= 1.0);
      return;
    case FaultModel::Kind::kFixedCount:
      // Range first, in double: narrowing an out-of-range double is UB.
      DMFB_EXPECTS(model.param >= 0.0 &&
                   model.param <= static_cast<double>(cell_count));
      DMFB_EXPECTS(model.param == static_cast<double>(
                                      static_cast<std::int32_t>(model.param)));
      return;
    case FaultModel::Kind::kClustered:
      DMFB_EXPECTS(model.param >= 0.0 && model.param <= kMaxMeanSpots);
      DMFB_EXPECTS(model.cluster.radius >= 0 &&
                   model.cluster.radius <= kMaxClusterRadius);
      DMFB_EXPECTS(model.cluster.core_kill >= 0.0 &&
                   model.cluster.core_kill <= 1.0);
      DMFB_EXPECTS(model.cluster.edge_kill >= 0.0 &&
                   model.cluster.edge_kill <= model.cluster.core_kill);
      return;
    case FaultModel::Kind::kParametric:
      DMFB_EXPECTS(std::isfinite(model.param) && model.param > 0.0);
      return;
    case FaultModel::Kind::kMixture:
      DMFB_EXPECTS(!model.components.empty());
      for (const FaultModel& component : model.components) {
        DMFB_EXPECTS(component.kind != FaultModel::Kind::kMixture);
        validate(component, cell_count);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

void inject(const FaultModel& model, FaultState& state, Rng& rng) {
  inject_into(model, state, rng);
}

void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream) {
  inject_into(model, state, stream);
}

fault::FaultMap inject(const FaultModel& model, biochip::HexArray& array,
                       Rng& rng) {
  return record_faults(model, array, rng);
}

fault::FaultMap inject_v2(const FaultModel& model, biochip::HexArray& array,
                          CounterStream& stream) {
  return record_faults(model, array, stream);
}

double expected_failures_per_spot(const ClusterShape& shape) noexcept {
  // Sum of kill probability over the rings of an interior disk.
  double expected = shape.core_kill;  // ring 0 (the centre)
  for (std::int32_t d = 1; d <= shape.radius; ++d) {
    const double t = static_cast<double>(d) / static_cast<double>(shape.radius);
    const double kill_prob =
        shape.core_kill + (shape.edge_kill - shape.core_kill) * t;
    expected += 6.0 * d * kill_prob;
  }
  return expected;
}

double expected_fault_fraction(const FaultModel& model,
                               const ChipDesign& design) {
  const double cells = static_cast<double>(design.cell_count());
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      return 1.0 - model.param;  // param is the survival probability
    case FaultModel::Kind::kFixedCount:
      return cells == 0.0 ? 0.0 : model.param / cells;
    case FaultModel::Kind::kClustered: {
      // Mean-field: each spot kills ~disk-area x mean kill probability
      // cells; boundary clipping and spot overlap only lower the truth, so
      // this over-estimates.
      const double radius = static_cast<double>(model.cluster.radius);
      const double disk = 1.0 + 3.0 * radius * (radius + 1.0);
      const double mean_kill =
          (model.cluster.core_kill + model.cluster.edge_kill) / 2.0;
      if (cells == 0.0) return 0.0;
      return std::min(1.0, model.param * disk * mean_kill / cells);
    }
    case FaultModel::Kind::kParametric:
      return parametric_spec(model).cell_fault_probability();
    case FaultModel::Kind::kMixture: {
      // Components are conditionally independent given the design, so the
      // per-cell fault probability unions as 1 - prod(1 - f_i).
      double survive = 1.0;
      for (const FaultModel& component : model.components) {
        survive *= 1.0 - expected_fault_fraction(component, design);
      }
      return 1.0 - survive;
    }
  }
  DMFB_ASSERT(!"unknown fault model kind");
  return 0.0;
}

}  // namespace dmfb::sim
