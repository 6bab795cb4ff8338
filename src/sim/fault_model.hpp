// sim::FaultModel — the one description of the Monte-Carlo defect models,
// and their injection.
//
// Each kind has one injection core per draw contract (sim/fault_model.cpp),
// run with one of two sinks:
//  * a FaultState bitmap (inject / inject_v2 on a FaultState): what Session
//    runs. It keeps no records, so it consumes each fault's classification
//    or attribution draw without evaluating it (a raw draw under v1,
//    skip(1) under v2);
//  * a HexArray plus a fault::FaultMap (inject / inject_v2 on a HexArray):
//    marks the array and records each fault with its sampled
//    classification or attribution, for programs that show a chip.
// Both sinks walk the same stream, so a HexArray loop and a session give
// bit-identical success counts. The draw-contract pin in
// tests/test_sim_fault_models.cpp holds every sequence fixed.
//
// kMixture runs an ordered list of the concrete kinds on one stream and one
// sink: every component consumes its standalone draw sequence (clustered
// kill draws see the live fault state, as standalone), and a cell keeps the
// first component that faulted it; an absorbed kill still consumes its
// classification or attribution draw.
#pragma once

#include <cstdint>
#include <vector>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/samplers.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {

/// Largest clustered mean spot count validate() accepts (campaign specs
/// and serve queries share it): the Poisson sampler's own bound.
inline constexpr double kMaxMeanSpots = fault::kMaxPoissonMean;

/// Largest cluster radius validate() accepts (campaign specs and serve
/// queries share it). A spot materialises the 3r(r + 1) + 1 cells of its
/// disk, so a huge radius exhausts memory.
inline constexpr std::int32_t kMaxClusterRadius = 64;

/// Spatial cluster knobs: each spot kills the cells within `radius` hex
/// steps of its centre with probability decaying linearly from `core_kill`
/// at the centre to `edge_kill` at the rim.
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
  static FaultModel parametric(double sigma_scale) {
    FaultModel model;
    model.kind = Kind::kParametric;
    model.param = sigma_scale;
    return model;
  }
  /// The concrete model of a kind chosen at run time: the named factory of
  /// `kind` (the one above) with `param`, so its query_key is that
  /// factory's. `cluster` is read by kClustered only; every other kind
  /// keeps the default ClusterShape. A kMixture `kind` throws
  /// ContractViolation: build mixtures with mixture().
  static FaultModel concrete(Kind kind, double param,
                             const ClusterShape& cluster);
  /// Ordered composition; see the mixture contract in the header comment.
  static FaultModel mixture(std::vector<FaultModel> parts) {
    FaultModel model;
    model.kind = Kind::kMixture;
    model.param = 0.0;
    model.components = std::move(parts);
    return model;
  }
};

/// Validates `model` for a chip of `cell_count` cells (throws
/// ContractViolation on bad parameters, including the kMaxMeanSpots /
/// kMaxClusterRadius caps). For mixtures: non-empty, no nested mixtures,
/// every component valid.
void validate(const FaultModel& model, std::int32_t cell_count);

/// Injects one run's faults into `state` (which must arrive reset) under
/// the v1 contract. Does not validate `model`: Session validates a query
/// once, not per run.
void inject(const FaultModel& model, FaultState& state, Rng& rng);

/// v2 (rng_version = v2) injection into `state`: marks the word-packed
/// bitmap directly (bulk ascending writes for the standalone skip-sampled
/// kinds) and skip()s the classification/attribution draws it keeps no
/// records for. O(faults) for bernoulli / fixed-count / parametric;
/// O(spot area) for clustered. A standalone bernoulli or parametric run
/// expecting kMinGapKernelFaults or more faults takes its gaps from
/// default_gap_kernel() (sim/geometric_gaps.hpp), with the same faults,
/// final cursor and counters as the scalar loop.
void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream);

/// Validates `model` against `array`, marks one v1 run's faults on it
/// (`array` must arrive healthy) and returns them with their sampled
/// classifications and attributions, in injection order. The same draws,
/// and the same faulty cells, as inject() into a FaultState.
fault::FaultMap inject(const FaultModel& model, biochip::HexArray& array,
                       Rng& rng);

/// The v2 twin of the HexArray inject(). Under v2 a parametric record's
/// deviation is the tolerance boundary of the attributed parameter (v2
/// samples no deviates, only the fault bit and the attribution).
fault::FaultMap inject_v2(const FaultModel& model, biochip::HexArray& array,
                          CounterStream& stream);

/// Expected number of cell failures of one clustered spot in the interior
/// (ignoring boundary clipping): the kill probability summed over the
/// rings of its disk. Calibrates clustered-vs-Bernoulli comparisons.
double expected_failures_per_spot(const ClusterShape& shape) noexcept;

/// Expected fraction of `design`'s cells a single run of `model` faults,
/// in [0, 1]. Exact for bernoulli / fixed-count / parametric, a documented
/// mean-field approximation for clustered (mean spots x full-disk area x
/// average kill probability, ignoring boundary clipping and overlap), and
/// the independent-union combination for mixtures. Deterministic — it
/// never depends on sampled state.
double expected_fault_fraction(const FaultModel& model,
                               const ChipDesign& design);

}  // namespace dmfb::sim
