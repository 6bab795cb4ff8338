#include "sim/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/contracts.hpp"
#include "fault/kinds.hpp"
#include "obs/metrics.hpp"

namespace dmfb::sim {

namespace {

/// Draw tallies for one inject() call, kept in the sink so the loops stay
/// free of TLS lookups; flushed to obs once per call. Every field is a pure
/// function of (model, seed, run), hence a stable counter.
struct InjectTally {
  std::int64_t trials = 0;          ///< per-cell fault trials evaluated
  std::int64_t classification = 0;  ///< classification/attribution draws
};

/// FaultState sink for the fault/kinds.hpp cores. It keeps no records, so
/// it consumes each fault's classification or attribution draw without
/// evaluating it: a raw draw under v1, skip(1) under v2. The bitmap's
/// idempotent set_faulty gives first-faulter-wins for mixtures.
///
/// Tally: under v1 `trials` counts the per-cell trials the core evaluated;
/// under v2 it counts fault candidates reaching the sink.
template <typename Stream>
class BitmapSink {
 public:
  static constexpr bool kV1 = std::is_same_v<Stream, Rng>;

  /// `ascending`: the cells arrive in strictly ascending order on an empty
  /// bitmap (a standalone skip-sampled kind), so the v2 path may append
  /// without the set_faulty membership probe.
  BitmapSink(FaultState& state, bool ascending)
      : state_(state), ascending_(ascending) {
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
    state_.set_faulty(cell);
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

  void mark(CellIndex cell) {
    if (!kV1 && ascending_) {
      state_.set_faulty_ascending(cell);
    } else {
      state_.set_faulty(cell);
    }
  }

  FaultState& state_;
  bool ascending_;
  InjectTally tally_;
};

/// Dispatches one model onto its core; a mixture runs its components in
/// order on the same stream and sink.
template <typename Stream>
void inject_model(const FaultModel& model, Stream& stream,
                  BitmapSink<Stream>& sink) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      fault::inject_core(fault::BernoulliInjector(model.param), stream, sink);
      return;
    case FaultModel::Kind::kFixedCount:
      fault::inject_core(
          fault::FixedCountInjector(static_cast<std::int32_t>(model.param)),
          stream, sink);
      return;
    case FaultModel::Kind::kClustered:
      fault::inject_core(
          fault::ClusteredInjector(model.param, model.cluster.radius,
                                   model.cluster.core_kill,
                                   model.cluster.edge_kill),
          stream, sink);
      return;
    case FaultModel::Kind::kParametric:
      fault::inject_core(
          fault::ParametricInjector(
              fault::ProcessSpec::typical().scaled(model.param)),
          stream, sink);
      return;
    case FaultModel::Kind::kMixture:
      for (const FaultModel& component : model.components) {
        inject_model(component, stream, sink);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

}  // namespace

void validate(const FaultModel& model, const ChipDesign& design) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      DMFB_EXPECTS(model.param >= 0.0 && model.param <= 1.0);
      return;
    case FaultModel::Kind::kFixedCount:
      // Range first, in double: narrowing an out-of-range double is UB.
      DMFB_EXPECTS(model.param >= 0.0 &&
                   model.param <= static_cast<double>(design.cell_count()));
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
        validate(component, design);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

void inject(const FaultModel& model, FaultState& state, Rng& rng) {
  BitmapSink<Rng> sink(state, /*ascending=*/false);
  inject_model(model, rng, sink);
  sink.flush();
}

void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream) {
  // Standalone skip-sampled kinds visit cells in ascending order on the
  // empty bitmap; mixture components and fixed-count picks do not.
  BitmapSink<CounterStream> sink(
      state, model.kind == FaultModel::Kind::kBernoulli ||
                 model.kind == FaultModel::Kind::kParametric);
  inject_model(model, stream, sink);
  sink.flush();
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
      // this over-estimates — safe for an engine heuristic.
      const double radius = static_cast<double>(model.cluster.radius);
      const double disk = 1.0 + 3.0 * radius * (radius + 1.0);
      const double mean_kill =
          (model.cluster.core_kill + model.cluster.edge_kill) / 2.0;
      if (cells == 0.0) return 0.0;
      return std::min(1.0, model.param * disk * mean_kill / cells);
    }
    case FaultModel::Kind::kParametric:
      return fault::ProcessSpec::typical()
          .scaled(model.param)
          .cell_fault_probability();
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
