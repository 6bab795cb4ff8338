// Sweep-grid expansion: a CampaignSpec's cross product flattened into the
// ordered list of scenario points the runner executes.
//
// Expansion order is fixed (design, primaries, injector param, policy,
// engine, pool — slowest to fastest) so artifacts are stable across runs
// and thread counts. The fixed-size multiplexed chip collapses the
// primaries dimension to a single entry.
//
// A point speaks sim's vocabulary (sim::FaultModel::Kind, sim::ClusterShape,
// sim::Workload under their campaign names); campaign::query_of
// (campaign/runner.hpp) turns it into the session query, and its identity
// is the (design, min_primaries, sim::query_key) of that query.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/spec.hpp"

namespace dmfb::campaign {

/// One resolved mixture component: a concrete injector kind plus the
/// parameter value it runs with at this grid point.
struct MixtureComponent {
  InjectorKind kind = InjectorKind::kBernoulli;
  double param = 0.0;

  friend bool operator==(const MixtureComponent&,
                         const MixtureComponent&) = default;
};

/// One fully-instantiated scenario: everything needed for one Session query.
struct CampaignPoint {
  Design design = Design::kDtmb2_6;
  /// Requested minimum primary count; 0 for the fixed-size multiplexed chip.
  std::int32_t min_primaries = 0;
  /// What each run evaluates (copied from the spec; not a sweep dimension).
  WorkloadKind workload = WorkloadKind::kStructural;
  /// Injection draw contract (copied from the spec; not a sweep dimension).
  RngVersion rng_version = RngVersion::kV1;
  InjectorKind injector = InjectorKind::kBernoulli;
  /// The concrete kind whose parameter this point's `param` is: `injector`
  /// itself, or a mixture's swept component.
  InjectorKind sweep_kind = InjectorKind::kBernoulli;
  /// The swept injector parameter: p (bernoulli), m (fixed_count, integral),
  /// mean_spots (clustered) or sigma_scale (parametric).
  double param = 0.0;
  ClusterParams cluster;
  /// injector == kMixture only: the ordered, fully-resolved components
  /// (the swept component's entry duplicates `param`).
  std::vector<MixtureComponent> components;
  reconfig::CoveragePolicy policy =
      reconfig::CoveragePolicy::kAllFaultyPrimaries;
  /// Always kHopcroftKarp: fills the artifacts' `engine` column. Kept for
  /// perfbench/layers.cpp, which sends it over the wire; the next benchmark
  /// change removes it.
  graph::MatchingEngine engine = graph::MatchingEngine::kHopcroftKarp;
  reconfig::ReplacementPool pool = reconfig::ReplacementPool::kSparesOnly;

  /// Name of the swept parameter column
  /// ("p" / "m" / "mean_spots" / "sigma_scale").
  const char* param_name() const noexcept;
};

/// Flattens the spec's sweep dimensions into points, in canonical order.
std::vector<CampaignPoint> expand_grid(const CampaignSpec& spec);

}  // namespace dmfb::campaign
