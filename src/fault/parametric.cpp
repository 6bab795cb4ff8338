#include "fault/parametric.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "common/contracts.hpp"

namespace dmfb::fault {

ProcessSpec ProcessSpec::typical() {
  return ProcessSpec{{{
      {ParametricDefect::kInsulatorThickness, 0.030, 0.10},
      {ParametricDefect::kElectrodeLength, 0.015, 0.06},
      {ParametricDefect::kPlateGap, 0.025, 0.09},
  }}};
}

ProcessSpec ProcessSpec::scaled(double sigma_scale) const {
  DMFB_EXPECTS(sigma_scale > 0.0);
  ProcessSpec out = *this;
  for (ParameterSpec& param : out.parameters) param.sigma *= sigma_scale;
  return out;
}

double normal_upper_tail(double x) {
  return 0.5 * std::erfc(x / std::numbers::sqrt2);
}

double ProcessSpec::cell_fault_probability() const {
  double survive = 1.0;
  for (const ParameterSpec& param : parameters) {
    DMFB_EXPECTS(param.sigma > 0.0);
    // P(|dev| <= tol) = 1 - 2 Q(tol / sigma)
    const double in_tolerance =
        1.0 - 2.0 * normal_upper_tail(param.tolerance / param.sigma);
    survive *= in_tolerance;
  }
  return 1.0 - survive;
}

double sample_standard_normal(Rng& rng) {
  // Box-Muller; guard against log(0).
  double u1 = rng.uniform01();
  if (u1 <= 0.0) u1 = std::numeric_limits<double>::min();
  const double u2 = rng.uniform01();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::array<Deviation, 3> sample_cell(const ProcessSpec& spec, Rng& rng) {
  std::array<Deviation, 3> deviations;
  for (std::size_t i = 0; i < deviations.size(); ++i) {
    const ParameterSpec& param = spec.parameters[i];
    const double value = sample_standard_normal(rng) * param.sigma;
    deviations[i] = {param.parameter, value,
                     std::abs(value) > param.tolerance};
  }
  return deviations;
}

std::array<double, 3> parametric_attribution_weights_v2(
    const ProcessSpec& spec) {
  std::array<double, 3> weights;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const ParameterSpec& param = spec.parameters[i];
    weights[i] = 2.0 * normal_upper_tail(param.tolerance / param.sigma);
  }
  return weights;
}

std::size_t pick_parametric_attribution_v2(const std::array<double, 3>& weights,
                                           double u) {
  double total = 0.0;
  for (const double w : weights) total += w;
  const double scaled = u * total;
  std::size_t pick = weights.size() - 1;
  double cum = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    if (scaled < cum) {
      pick = i;
      break;
    }
  }
  return pick;
}

}  // namespace dmfb::fault
