// Fault injection cores: one per (fault kind, draw contract).
//
// A core walks the draws of one fault kind and hands each fault to a sink.
// The same core serves every layer: fault::*Injector::inject / inject_v2
// and fault::MixtureInjector run it with the RecordSink below (HexArray
// health plus a FaultMap), sim::inject / inject_v2 with a FaultState bitmap
// sink (sim/fault_model.cpp). The layers therefore draw the same sequence
// by construction; the draw-contract pin in tests/test_sim_fault_models.cpp
// holds each sequence fixed.
//
// Cores overload on the stream: Rng is the v1 serial contract,
// CounterStream the v2 counter contract (common/rng.hpp).
//  * bernoulli — v1: one trial draw per cell (bernoulli_trials). v2:
//    geometric skip-sampling, one draw per fault plus one overshoot draw.
//  * fixed_count — v1: Rng::sample_without_replacement. v2: Floyd's
//    algorithm (fixed_count_v2), one uniform_below per pick.
//  * clustered — one spot walk for both: a Poisson spot count, a uniform
//    centre per spot, then one kill trial per live cell of the spot's disk,
//    with probability decaying linearly from core to edge. Faulty cells are
//    skipped, so later spots and later mixture components see earlier kills.
//  * parametric — v1: three Gaussian deviates per cell, the worst
//    out-of-tolerance one attributed. v2: skip-sampling at the closed-form
//    cell_fault_probability(), then one attribution draw per fault.
//  * mixture — components run in order on one stream and one sink; each
//    consumes its full standalone draw sequence.
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
// every later draw aligned; the first faulter keeps the cell.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "biochip/hex_array.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"
#include "hexgrid/hex_coord.hpp"
#include "hexgrid/region.hpp"

namespace dmfb::fault {

/// Floyd's algorithm: exactly `count` distinct cells from [0, cells), one
/// uniform_below draw per pick (Lemire rejections advance the cursor
/// deterministically) and no O(cells) index pool. Membership is a linear
/// scan over the picks so far (count is small in every supported query; an
/// unordered set would also trip the determinism linter).
template <typename OnPick>
void fixed_count_v2(CounterStream& stream, std::int32_t cells,
                    std::int32_t count, OnPick&& on_pick) {
  DMFB_EXPECTS(count >= 0 && count <= cells);
  std::vector<std::int32_t> chosen;
  chosen.reserve(static_cast<std::size_t>(count));
  for (std::int32_t j = cells - count; j < cells; ++j) {
    const auto t = static_cast<std::int32_t>(
        stream.uniform_below(static_cast<std::uint64_t>(j) + 1));
    bool duplicate = false;
    for (const std::int32_t c : chosen) duplicate |= (c == t);
    const std::int32_t pick = duplicate ? j : t;
    chosen.push_back(pick);
    on_pick(pick);
  }
}

template <typename Sink>
void inject_core(const BernoulliInjector& injector, Rng& rng, Sink& sink) {
  sink.trials(sink.cell_count());
  bernoulli_trials(rng, sink.cell_count(),
                   1.0 - injector.survival_probability(),
                   [&](std::int32_t cell, Rng& draws) {
                     sink.catastrophic(cell, draws);
                   });
}

template <typename Sink>
void inject_core(const BernoulliInjector& injector, CounterStream& stream,
                 Sink& sink) {
  skip_sample_bernoulli(
      stream, sink.cell_count(), 1.0 - injector.survival_probability(),
      [&](std::int32_t cell) { sink.catastrophic(cell, stream); });
}

template <typename Sink>
void inject_core(const FixedCountInjector& injector, Rng& rng, Sink& sink) {
  DMFB_EXPECTS(injector.count() <= sink.cell_count());
  sink.trials(injector.count());
  for (const std::int32_t cell :
       rng.sample_without_replacement(sink.cell_count(), injector.count())) {
    sink.catastrophic(cell, rng);
  }
}

template <typename Sink>
void inject_core(const FixedCountInjector& injector, CounterStream& stream,
                 Sink& sink) {
  fixed_count_v2(stream, sink.cell_count(), injector.count(),
                 [&](std::int32_t cell) { sink.catastrophic(cell, stream); });
}

/// The spot walk is serial (later spots see earlier kills through
/// is_faulty), and costs O(spot area), not O(cells), under both contracts.
template <typename Stream, typename Sink>
void inject_core(const ClusteredInjector& injector, Stream& stream,
                 Sink& sink) {
  const hex::Region& region = sink.region();
  const std::int32_t radius = injector.radius();
  const std::int32_t spots = sample_poisson(injector.mean_spots(), stream);
  for (std::int32_t spot = 0; spot < spots; ++spot) {
    const auto center_index = static_cast<std::int32_t>(
        stream.uniform_below(static_cast<std::uint64_t>(sink.cell_count())));
    const hex::HexCoord center = region.coord_at(center_index);
    for (const hex::HexCoord at : hex::disk(center, radius)) {
      const hex::CellIndex cell = region.index_of(at);
      if (cell == hex::kInvalidCell) continue;  // spot clipped by boundary
      if (sink.is_faulty(cell)) continue;
      const double t = radius == 0
                           ? 0.0
                           : static_cast<double>(hex::distance(center, at)) /
                                 static_cast<double>(radius);
      const double kill_prob =
          injector.core_kill_prob() +
          (injector.edge_kill_prob() - injector.core_kill_prob()) * t;
      sink.trials(1);
      if (stream.bernoulli(kill_prob)) sink.catastrophic(cell, stream);
    }
  }
}

template <typename Sink>
void inject_core(const ParametricInjector& injector, Rng& rng, Sink& sink) {
  const std::int32_t cells = sink.cell_count();
  sink.trials(cells);
  for (std::int32_t cell = 0; cell < cells; ++cell) {
    const auto deviations = injector.sample_cell(rng);
    const Deviation* worst = nullptr;
    for (const Deviation& deviation : deviations) {
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
void inject_core(const ParametricInjector& injector, CounterStream& stream,
                 Sink& sink) {
  const ProcessSpec& spec = injector.spec();
  skip_sample_bernoulli(
      stream, sink.cell_count(), spec.cell_fault_probability(),
      [&](std::int32_t cell) { sink.parametric(cell, stream, spec); });
}

template <typename Stream, typename Sink>
void inject_core(const MixtureInjector& injector, Stream& stream,
                 Sink& sink) {
  for (const MixtureInjector::Component& component : injector.components()) {
    std::visit(
        [&](const auto& part) { inject_core(part, stream, sink); },
        component);
  }
}

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
  bool is_faulty(hex::CellIndex cell) const {
    return array_.health(cell) == biochip::CellHealth::kFaulty;
  }

  void trials(std::int64_t /*count*/) noexcept {}

  template <typename Stream>
  void catastrophic(hex::CellIndex cell, Stream& stream) {
    FaultRecord record;
    record.fault_class = FaultClass::kCatastrophic;
    record.catastrophic = sample_catastrophic_defect(stream);
    add(cell, record);
  }

  /// Recomputes the attribution weights per fault: only this record path
  /// pays for them, and the bitmap sink never does.
  void parametric(hex::CellIndex cell, CounterStream& stream,
                  const ProcessSpec& spec) {
    const ParameterSpec& param =
        spec.parameters[pick_parametric_attribution_v2(
            parametric_attribution_weights_v2(spec), stream.uniform01())];
    parametric(cell, param.parameter, param.tolerance);
  }

  void parametric(hex::CellIndex cell, ParametricDefect parameter,
                  double deviation) {
    FaultRecord record;
    record.fault_class = FaultClass::kParametric;
    record.parametric = parameter;
    record.deviation = deviation;
    add(cell, record);
  }

  FaultMap take() { return std::move(map_); }

 private:
  void add(hex::CellIndex cell, FaultRecord record) {
    if (is_faulty(cell)) return;
    array_.set_health(cell, biochip::CellHealth::kFaulty);
    record.cell = cell;
    map_.records.push_back(record);
  }

  biochip::HexArray& array_;
  FaultMap map_;
};

/// One injector on a healthy array: its core with a RecordSink.
template <typename Injector, typename Stream>
FaultMap record_faults(const Injector& injector, biochip::HexArray& array,
                       Stream& stream) {
  RecordSink sink(array);
  inject_core(injector, stream, sink);
  return sink.take();
}

}  // namespace dmfb::fault
