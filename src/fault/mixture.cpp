#include "fault/mixture.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "fault/inject_v2.hpp"
#include "hexgrid/hex_coord.hpp"

namespace dmfb::fault {

namespace {

/// One catastrophic kill under the mixture contract: the classification
/// draw is always burned (standalone stream alignment), but a cell an
/// earlier component already faulted keeps its original attribution.
void kill_catastrophic(biochip::HexArray& array, FaultMap& map,
                       hex::CellIndex cell, Rng& rng) {
  const CatastrophicDefect defect = sample_catastrophic_defect(rng);
  if (array.health(cell) == biochip::CellHealth::kFaulty) return;
  array.set_health(cell, biochip::CellHealth::kFaulty);
  FaultRecord record;
  record.cell = cell;
  record.fault_class = FaultClass::kCatastrophic;
  record.catastrophic = defect;
  map.records.push_back(record);
}

// The apply() overloads replicate the standalone injectors' loops (same
// draws, same order); only the set-health/record step differs, per the
// first-faulter-wins contract in the header.

void apply(const BernoulliInjector& injector, biochip::HexArray& array,
           FaultMap& map, Rng& rng) {
  bernoulli_trials(rng, array.cell_count(),
                   1.0 - injector.survival_probability(),
                   [&](std::int32_t cell, Rng& draws) {
                     kill_catastrophic(array, map, cell, draws);
                   });
}

void apply(const FixedCountInjector& injector, biochip::HexArray& array,
           FaultMap& map, Rng& rng) {
  DMFB_EXPECTS(injector.count() <= array.cell_count());
  for (const std::int32_t cell :
       rng.sample_without_replacement(array.cell_count(), injector.count())) {
    kill_catastrophic(array, map, cell, rng);
  }
}

void apply(const ClusteredInjector& injector, biochip::HexArray& array,
           FaultMap& map, Rng& rng) {
  const std::int32_t spots = sample_poisson(injector.mean_spots(), rng);
  for (std::int32_t spot = 0; spot < spots; ++spot) {
    const auto center_index = static_cast<std::int32_t>(
        rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
    const hex::HexCoord center = array.region().coord_at(center_index);
    for (const hex::HexCoord at : hex::disk(center, injector.radius())) {
      const hex::CellIndex cell = array.region().index_of(at);
      if (cell == hex::kInvalidCell) continue;  // spot clipped by boundary
      if (array.health(cell) == biochip::CellHealth::kFaulty) continue;
      const double t =
          injector.radius() == 0
              ? 0.0
              : static_cast<double>(hex::distance(center, at)) /
                    static_cast<double>(injector.radius());
      const double kill_prob =
          injector.core_kill_prob() +
          (injector.edge_kill_prob() - injector.core_kill_prob()) * t;
      if (rng.bernoulli(kill_prob)) kill_catastrophic(array, map, cell, rng);
    }
  }
}

void apply(const ParametricInjector& injector, biochip::HexArray& array,
           FaultMap& map, Rng& rng) {
  for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
    const auto deviations = injector.sample_cell(rng);
    const Deviation* worst = nullptr;
    for (const Deviation& deviation : deviations) {
      if (!deviation.out_of_tolerance) continue;
      if (worst == nullptr ||
          std::abs(deviation.value) > std::abs(worst->value)) {
        worst = &deviation;
      }
    }
    if (worst == nullptr) continue;
    if (array.health(cell) == biochip::CellHealth::kFaulty) continue;
    array.set_health(cell, biochip::CellHealth::kFaulty);
    FaultRecord record;
    record.cell = cell;
    record.fault_class = FaultClass::kParametric;
    record.parametric = worst->parameter;
    record.deviation = worst->value;
    map.records.push_back(record);
  }
}

/// v2 sibling of kill_catastrophic: identical first-faulter-wins rule, with
/// the classification draw taken off the counter stream.
void kill_catastrophic_v2(biochip::HexArray& array, FaultMap& map,
                          hex::CellIndex cell, CounterStream& stream) {
  const CatastrophicDefect defect = sample_catastrophic_defect(stream);
  if (array.health(cell) == biochip::CellHealth::kFaulty) return;
  array.set_health(cell, biochip::CellHealth::kFaulty);
  FaultRecord record;
  record.cell = cell;
  record.fault_class = FaultClass::kCatastrophic;
  record.catastrophic = defect;
  map.records.push_back(record);
}

// The apply_v2() overloads drive the shared v2 kind algorithms
// (fault/inject_v2.hpp) with first-faulter-wins callbacks, so a component
// consumes exactly the draw sequence of its standalone inject_v2.

void apply_v2(const BernoulliInjector& injector, biochip::HexArray& array,
              FaultMap& map, CounterStream& stream) {
  skip_sample_bernoulli(stream, array.cell_count(),
                        1.0 - injector.survival_probability(),
                        [&](std::int32_t cell) {
                          kill_catastrophic_v2(array, map, cell, stream);
                        });
}

void apply_v2(const FixedCountInjector& injector, biochip::HexArray& array,
              FaultMap& map, CounterStream& stream) {
  DMFB_EXPECTS(injector.count() <= array.cell_count());
  fixed_count_v2(stream, array.cell_count(), injector.count(),
                 [&](std::int32_t cell) {
                   kill_catastrophic_v2(array, map, cell, stream);
                 });
}

void apply_v2(const ClusteredInjector& injector, biochip::HexArray& array,
              FaultMap& map, CounterStream& stream) {
  clustered_v2(
      stream, array.region(), array.cell_count(), injector.mean_spots(),
      injector.radius(), injector.core_kill_prob(), injector.edge_kill_prob(),
      [&](hex::CellIndex cell) {
        return array.health(cell) == biochip::CellHealth::kFaulty;
      },
      [&](hex::CellIndex cell) {
        kill_catastrophic_v2(array, map, cell, stream);
      });
}

void apply_v2(const ParametricInjector& injector, biochip::HexArray& array,
              FaultMap& map, CounterStream& stream) {
  const ProcessSpec& spec = injector.spec();
  const std::array<double, 3> weights =
      parametric_attribution_weights_v2(spec);
  skip_sample_bernoulli(
      stream, array.cell_count(), spec.cell_fault_probability(),
      [&](std::int32_t cell) {
        // The attribution draw is consumed whether or not the kill is
        // absorbed, like the catastrophic classification draw.
        const std::size_t pick =
            pick_parametric_attribution_v2(weights, stream.uniform01());
        if (array.health(cell) == biochip::CellHealth::kFaulty) return;
        const ParameterSpec& param = spec.parameters[pick];
        array.set_health(cell, biochip::CellHealth::kFaulty);
        FaultRecord record;
        record.cell = cell;
        record.fault_class = FaultClass::kParametric;
        record.parametric = param.parameter;
        record.deviation = param.tolerance;
        map.records.push_back(record);
      });
}

}  // namespace

MixtureInjector::MixtureInjector(std::vector<Component> components)
    : components_(std::move(components)) {
  DMFB_EXPECTS(!components_.empty());
}

FaultMap MixtureInjector::inject(biochip::HexArray& array, Rng& rng) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  for (const Component& component : components_) {
    std::visit(
        [&](const auto& injector) { apply(injector, array, map, rng); },
        component);
  }
  return map;
}

FaultMap MixtureInjector::inject_v2(biochip::HexArray& array,
                                    CounterStream& stream) const {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  for (const Component& component : components_) {
    std::visit(
        [&](const auto& injector) { apply_v2(injector, array, map, stream); },
        component);
  }
  return map;
}

}  // namespace dmfb::fault
