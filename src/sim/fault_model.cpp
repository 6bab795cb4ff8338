#include "sim/fault_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "fault/inject_v2.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"
#include "hexgrid/hex_coord.hpp"
#include "obs/metrics.hpp"

namespace dmfb::sim {

namespace {

/// Draw tallies for one inject() call, kept in stack locals so the loops
/// stay free of TLS lookups; flushed to obs once per call. Every field is
/// a pure function of (model, seed, run), hence a stable counter.
struct InjectTally {
  std::int64_t trials = 0;          ///< per-cell fault trials evaluated
  std::int64_t classification = 0;  ///< catastrophic-defect draws (burns)
};

/// The legacy injectors draw one catastrophic-defect classification per
/// injected fault (fault::sample_catastrophic_defect). The bitmap path has
/// no FaultMap to fill, but must burn the identical draw to stay on the
/// same Rng trajectory.
inline void burn_defect_classification(Rng& rng) {
  (void)fault::sample_catastrophic_defect(rng);
}

// Each inject_* function is draw-for-draw identical to its fault::*Injector
// counterpart, and — because FaultState::set_faulty is idempotent and the
// classification burn happens regardless — also implements the mixture
// contract (fault::MixtureInjector) when the state arrives pre-faulted:
// draws replay the standalone sequence, first faulter wins.

void inject_bernoulli(double survival_p, FaultState& state, Rng& rng,
                      InjectTally& tally) {
  const std::int32_t n = state.design().cell_count();
  tally.trials += n;
  bernoulli_trials(rng, n, 1.0 - survival_p,
                   [&](std::int32_t cell, Rng& draws) {
                     state.set_faulty(cell);
                     burn_defect_classification(draws);
                     ++tally.classification;
                   });
}

void inject_fixed_count(std::int32_t count, FaultState& state, Rng& rng,
                        InjectTally& tally) {
  tally.trials += count;
  tally.classification += count;
  for (const std::int32_t cell :
       rng.sample_without_replacement(state.design().cell_count(), count)) {
    state.set_faulty(cell);
    burn_defect_classification(rng);
  }
}

void inject_clustered(double mean_spots, const ClusterShape& shape,
                      FaultState& state, Rng& rng, InjectTally& tally) {
  const hex::Region& region = state.design().array().region();
  const std::int32_t spots = fault::sample_poisson(mean_spots, rng);
  for (std::int32_t spot = 0; spot < spots; ++spot) {
    const auto center_index = static_cast<std::int32_t>(rng.uniform_below(
        static_cast<std::uint64_t>(state.design().cell_count())));
    const hex::HexCoord center = region.coord_at(center_index);
    for (const hex::HexCoord at : hex::disk(center, shape.radius)) {
      const CellIndex cell = region.index_of(at);
      if (cell == hex::kInvalidCell) continue;  // spot clipped by boundary
      if (state.is_faulty(cell)) continue;
      const double t = shape.radius == 0
                           ? 0.0
                           : static_cast<double>(hex::distance(center, at)) /
                                 static_cast<double>(shape.radius);
      const double kill_prob =
          shape.core_kill + (shape.edge_kill - shape.core_kill) * t;
      ++tally.trials;
      if (rng.bernoulli(kill_prob)) {
        state.set_faulty(cell);
        burn_defect_classification(rng);
        ++tally.classification;
      }
    }
  }
}

void inject_parametric(double sigma_scale, FaultState& state, Rng& rng,
                       InjectTally& tally) {
  // Replays fault::ParametricInjector(typical().scaled(sigma_scale)):
  // sample_cell always draws three deviations (no fault-state dependence),
  // and parametric faults carry no catastrophic-classification burn.
  const fault::ParametricInjector injector(
      fault::ProcessSpec::typical().scaled(sigma_scale));
  const std::int32_t n = state.design().cell_count();
  tally.trials += n;
  for (std::int32_t cell = 0; cell < n; ++cell) {
    bool out_of_tolerance = false;
    for (const fault::Deviation& deviation : injector.sample_cell(rng)) {
      out_of_tolerance |= deviation.out_of_tolerance;
    }
    if (out_of_tolerance) state.set_faulty(cell);
  }
}

void inject_component(const FaultModel& model, FaultState& state, Rng& rng,
                      InjectTally& tally) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      inject_bernoulli(model.param, state, rng, tally);
      return;
    case FaultModel::Kind::kFixedCount:
      inject_fixed_count(static_cast<std::int32_t>(model.param), state, rng,
                         tally);
      return;
    case FaultModel::Kind::kClustered:
      inject_clustered(model.param, model.cluster, state, rng, tally);
      return;
    case FaultModel::Kind::kParametric:
      inject_parametric(model.param, state, rng, tally);
      return;
    case FaultModel::Kind::kMixture:
      for (const FaultModel& component : model.components) {
        inject_component(component, state, rng, tally);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

// The inject_*_v2 functions drive the shared v2 kind algorithms
// (fault/inject_v2.hpp) with bitmap callbacks, so they replay the exact
// cursor trajectory of the corresponding fault::*Injector::inject_v2 and
// mark the same cells. The classification/attribution draw each fault's
// callback must consume is skip()ed — the bitmap keeps no records. Under
// v2 the tally counts fault candidates reaching a callback (`trials`) and
// skipped classification draws (`classification`); both remain pure
// functions of (model, seed, run).
//
// `pristine` selects the bulk ascending-write path: standalone skip-sampled
// kinds visit cells in strictly ascending order on an empty bitmap, so the
// set_faulty membership probe is dead weight. Mixture components (and the
// unsorted fixed-count picks) take the idempotent set_faulty, which also
// implements first-faulter-wins for free.

void inject_bernoulli_v2(double survival_p, FaultState& state,
                         CounterStream& stream, InjectTally& tally,
                         bool pristine) {
  skip_sample_bernoulli(stream, state.design().cell_count(),
                        1.0 - survival_p, [&](std::int32_t cell) {
                          ++tally.trials;
                          stream.skip(1);  // classification draw
                          ++tally.classification;
                          if (pristine) {
                            state.set_faulty_ascending(cell);
                          } else {
                            state.set_faulty(cell);
                          }
                        });
}

void inject_fixed_count_v2(std::int32_t count, FaultState& state,
                           CounterStream& stream, InjectTally& tally) {
  fault::fixed_count_v2(stream, state.design().cell_count(), count,
                        [&](std::int32_t cell) {
                          ++tally.trials;
                          stream.skip(1);  // classification draw
                          ++tally.classification;
                          state.set_faulty(cell);
                        });
}

void inject_clustered_v2(double mean_spots, const ClusterShape& shape,
                         FaultState& state, CounterStream& stream,
                         InjectTally& tally) {
  const hex::Region& region = state.design().array().region();
  fault::clustered_v2(
      stream, region, state.design().cell_count(), mean_spots, shape.radius,
      shape.core_kill, shape.edge_kill,
      [&](CellIndex cell) { return state.is_faulty(cell); },
      [&](CellIndex cell) {
        ++tally.trials;
        stream.skip(1);  // classification draw
        ++tally.classification;
        state.set_faulty(cell);
      });
}

void inject_parametric_v2(double sigma_scale, FaultState& state,
                          CounterStream& stream, InjectTally& tally,
                          bool pristine) {
  const double fault_probability = fault::ProcessSpec::typical()
                                       .scaled(sigma_scale)
                                       .cell_fault_probability();
  skip_sample_bernoulli(stream, state.design().cell_count(),
                        fault_probability, [&](std::int32_t cell) {
                          ++tally.trials;
                          stream.skip(1);  // attribution draw
                          ++tally.classification;
                          if (pristine) {
                            state.set_faulty_ascending(cell);
                          } else {
                            state.set_faulty(cell);
                          }
                        });
}

void inject_component_v2(const FaultModel& model, FaultState& state,
                         CounterStream& stream, InjectTally& tally,
                         bool pristine) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      inject_bernoulli_v2(model.param, state, stream, tally, pristine);
      return;
    case FaultModel::Kind::kFixedCount:
      inject_fixed_count_v2(static_cast<std::int32_t>(model.param), state,
                            stream, tally);
      return;
    case FaultModel::Kind::kClustered:
      inject_clustered_v2(model.param, model.cluster, state, stream, tally);
      return;
    case FaultModel::Kind::kParametric:
      inject_parametric_v2(model.param, state, stream, tally, pristine);
      return;
    case FaultModel::Kind::kMixture:
      for (const FaultModel& component : model.components) {
        inject_component_v2(component, state, stream, tally,
                            /*pristine=*/false);
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
      DMFB_EXPECTS(model.param >= 0.0);
      DMFB_EXPECTS(model.cluster.radius >= 0);
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
  DMFB_EXPECTS(state.faulty_count() == 0);
  InjectTally tally;
  inject_component(model, state, rng, tally);
  // One flush per call keeps the per-cell loops TLS-free; the guard makes
  // the disabled default a single relaxed load.
  if (obs::enabled()) {
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, state.faulty_count());
    obs::count(obs::Metric::kInjectCellTrials, tally.trials);
    obs::count(obs::Metric::kInjectClassificationDraws, tally.classification);
  }
}

void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream) {
  DMFB_EXPECTS(state.faulty_count() == 0);
  InjectTally tally;
  inject_component_v2(model, state, stream, tally, /*pristine=*/true);
  if (obs::enabled()) {
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, state.faulty_count());
    obs::count(obs::Metric::kInjectCellTrials, tally.trials);
    obs::count(obs::Metric::kInjectClassificationDraws, tally.classification);
  }
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
