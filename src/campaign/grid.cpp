#include "campaign/grid.hpp"

#include "common/contracts.hpp"

namespace dmfb::campaign {

const char* CampaignPoint::param_name() const noexcept {
  return campaign::param_name(sweep_kind);
}

std::vector<CampaignPoint> expand_grid(const CampaignSpec& spec) {
  const InjectorKind sweep = spec.sweep_kind();
  const std::vector<double> params = spec.param_grid_of(sweep);
  DMFB_EXPECTS(!params.empty());
  DMFB_EXPECTS(!spec.designs.empty());

  // A mixture's non-swept components are single-valued across the whole
  // campaign (validated at parse time); resolve them once.
  std::vector<MixtureComponent> component_template;
  std::size_t sweep_index = component_template.size();
  if (spec.injector == InjectorKind::kMixture) {
    for (const InjectorKind kind : spec.mixture_components) {
      const std::vector<double> grid = spec.param_grid_of(kind);
      DMFB_EXPECTS(!grid.empty());
      if (kind == sweep) sweep_index = component_template.size();
      component_template.push_back({kind, grid.front()});
    }
    DMFB_EXPECTS(sweep_index < component_template.size());
  }

  // The multiplexed chip has a fixed size; collapse the primaries dimension
  // so a mixed design list does not duplicate its points.
  static const std::vector<std::int32_t> kFixedSize = {0};

  std::vector<CampaignPoint> points;
  for (const Design design : spec.designs) {
    const std::vector<std::int32_t>& sizes =
        design == Design::kMultiplexed ? kFixedSize : spec.primaries;
    DMFB_EXPECTS(!sizes.empty());
    for (const std::int32_t min_primaries : sizes) {
      for (const double param : params) {
        for (const reconfig::CoveragePolicy policy : spec.policies) {
          for (const graph::MatchingEngine engine : spec.engines) {
            for (const reconfig::ReplacementPool pool : spec.pools) {
              CampaignPoint point;
              point.design = design;
              point.min_primaries = min_primaries;
              point.workload = spec.workload;
              point.rng_version = spec.rng_version;
              point.injector = spec.injector;
              point.sweep_kind = sweep;
              point.param = param;
              point.cluster = spec.cluster;
              if (spec.injector == InjectorKind::kMixture) {
                point.components = component_template;
                point.components[sweep_index].param = param;
              }
              point.policy = policy;
              point.engine = engine;
              point.pool = pool;
              points.push_back(point);
            }
          }
        }
      }
    }
  }
  return points;
}

}  // namespace dmfb::campaign
