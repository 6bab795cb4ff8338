// sim::FaultModel — the structured defect models the session engine can
// inject directly into a FaultState bitmap.
//
// Each kind has one injection core per draw contract (fault/kinds.hpp),
// shared with the fault::*Injector HexArray layer: inject() and inject_v2()
// only dispatch a model onto its core with a FaultState sink. That sink
// consumes exactly the one classification or attribution draw per fault
// the record-keeping sink evaluates (a raw draw under v1, skip(1) under v2),
// so a session run walks the same stream as the HexArray path and gives
// bit-identical success counts. The draw-contract pin in
// tests/test_sim_fault_models.cpp holds every sequence fixed.
//
// kMixture runs an ordered list of the concrete kinds on one stream and one
// sink, as fault::MixtureInjector does: every component consumes its
// standalone draw sequence (clustered kill draws see the live fault state,
// as standalone), and a cell keeps the first component that faulted it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {

/// Largest clustered mean spot count validate() accepts (campaign specs
/// and serve queries share it): the Poisson sampler's own bound.
inline constexpr double kMaxMeanSpots = fault::kMaxPoissonMean;

/// Largest cluster radius validate() accepts (campaign specs and serve
/// queries share it). A spot materialises the 3r(r + 1) + 1 cells of its
/// disk, so a huge radius exhausts memory.
inline constexpr std::int32_t kMaxClusterRadius = 64;

/// Spatial cluster knobs (mirrors fault::ClusteredInjector's constructor).
struct ClusterShape {
  std::int32_t radius = 1;
  double core_kill = 0.9;
  double edge_kill = 0.3;
};

/// One structured defect model plus its parameter.
struct FaultModel {
  enum class Kind : std::uint8_t {
    kBernoulli,   ///< iid survival probability p per cell (paper Section 6)
    kFixedCount,  ///< exactly m random cell failures (Fig. 13)
    kClustered,   ///< Poisson spot clusters (independence ablation)
    kParametric,  ///< Gaussian geometry deviations vs tolerance (Section 4)
    kMixture,     ///< ordered composition of the concrete kinds above
  };

  Kind kind = Kind::kBernoulli;
  /// p (bernoulli, survival), m (fixed_count, integral), mean_spots
  /// (clustered) or sigma_scale (parametric), matching
  /// campaign::CampaignPoint::param. Unused by kMixture.
  double param = 0.99;
  ClusterShape cluster;  ///< used by kClustered only
  /// kMixture only: the concrete component models, applied in order.
  /// Nested mixtures are rejected by validate().
  std::vector<FaultModel> components;

  static FaultModel bernoulli(double p) {
    FaultModel model;
    model.kind = Kind::kBernoulli;
    model.param = p;
    return model;
  }
  static FaultModel fixed_count(std::int32_t m) {
    FaultModel model;
    model.kind = Kind::kFixedCount;
    model.param = static_cast<double>(m);
    return model;
  }
  static FaultModel clustered(double mean_spots, ClusterShape shape) {
    FaultModel model;
    model.kind = Kind::kClustered;
    model.param = mean_spots;
    model.cluster = shape;
    return model;
  }
  /// Parametric (soft) faults under fault::ProcessSpec::typical() with all
  /// sigmas multiplied by `sigma_scale` — a one-knob process-maturity axis.
  /// Runs the core of fault::ParametricInjector(typical().scaled(
  /// sigma_scale)).
  static FaultModel parametric(double sigma_scale) {
    FaultModel model;
    model.kind = Kind::kParametric;
    model.param = sigma_scale;
    return model;
  }
  /// Ordered composition; see the mixture contract in the header comment.
  static FaultModel mixture(std::vector<FaultModel> parts) {
    FaultModel model;
    model.kind = Kind::kMixture;
    model.param = 0.0;
    model.components = std::move(parts);
    return model;
  }
};

/// Validates `model` against `design` (throws ContractViolation on bad
/// parameters, mirroring the legacy injector constructors, plus the
/// kMaxMeanSpots / kMaxClusterRadius caps). For mixtures: non-empty, no
/// nested mixtures, every component valid.
void validate(const FaultModel& model, const ChipDesign& design);

/// Injects one run's faults into `state` (which must arrive reset) under
/// the v1 contract: the same core as the corresponding fault::*Injector (or
/// fault::MixtureInjector) on a HexArray.
void inject(const FaultModel& model, FaultState& state, Rng& rng);

/// v2 (rng_version = v2) injection: the same core as the corresponding
/// fault::*Injector::inject_v2 on a HexArray, marking the word-packed
/// bitmap directly (bulk ascending writes for the standalone skip-sampled
/// kinds) and skip()ping the classification/attribution draws it keeps no
/// records for. O(faults) for bernoulli / fixed-count / parametric;
/// O(spot area) for clustered.
void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream);

/// Expected fraction of `design`'s cells a single run of `model` faults,
/// in [0, 1]. Exact for bernoulli / fixed-count / parametric, a documented
/// mean-field approximation for clustered (mean spots x full-disk area x
/// average kill probability, ignoring boundary clipping and overlap), and
/// the independent-union combination for mixtures. Deterministic — it feeds
/// Session's engine auto-selection, which must never depend on sampled
/// state.
double expected_fault_fraction(const FaultModel& model,
                               const ChipDesign& design);

}  // namespace dmfb::sim
