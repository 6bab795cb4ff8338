// Compound yield models: classical defect-count statistics composed with
// the repairability of a defect-tolerant design.
//
// The paper assumes iid cell failures (binomial defect counts). Industrial
// yield modelling instead characterises chips by a *defect count
// distribution* — Poisson for uncorrelated defects, negative binomial
// (Stapper) when defects cluster between dies — and the classic results
// (e.g. Y0 = (1 + AD/alpha)^-alpha for zero-redundancy dies) follow. This
// module provides those count models and the composition
//
//   Y(design) = sum_m P(m defects) * P(repairable | m defects)
//
// where P(repairable | m) comes from fixed-m sim::Session queries, so any
// DTMB design can be evaluated under any defect statistics. (Spatial
// clustering *within* a chip is modelled separately by
// the clustered sim::FaultModel.)
#pragma once

#include <cstdint>
#include <vector>

#include "sim/session.hpp"

namespace dmfb::yield {

/// P(m defective cells), m = 0..cell_count, truncated & renormalised.
using DefectCountPmf = std::vector<double>;

/// Binomial(n, q) counts — the paper's iid model with q = 1 - p.
DefectCountPmf binomial_defect_pmf(std::int32_t cell_count, double q);

/// Poisson(mean) counts, truncated at cell_count.
DefectCountPmf poisson_defect_pmf(std::int32_t cell_count, double mean);

/// Negative-binomial counts with the given mean and Stapper clustering
/// parameter alpha (alpha -> infinity recovers Poisson).
DefectCountPmf negative_binomial_defect_pmf(std::int32_t cell_count,
                                            double mean, double alpha);

/// Zero-redundancy closed forms: probability of zero defects.
double poisson_zero_defect_yield(double mean);
/// Stapper's formula Y = (1 + mean/alpha)^-alpha.
double stapper_zero_defect_yield(double mean, double alpha);

/// Composes a defect-count distribution with per-m Monte-Carlo
/// repairability of a session's design. Terms with pmf < `pmf_cutoff` are
/// skipped (their total mass is added to the reported truncation error).
struct CompoundYield {
  double value = 0.0;
  double truncated_mass = 0.0;  ///< pmf mass skipped by the cutoff
};

/// Session-based composition: every per-m term is a fixed-count query on
/// `session` (seed offset by m), so the design snapshot, its matching
/// skeletons and the session query cache are shared across the whole sweep —
/// and across repeated compound evaluations. `base.fault` is ignored; the
/// remaining query knobs (runs, seed, threads, policy, pool) apply
/// to every term.
CompoundYield compound_yield(sim::Session& session, const DefectCountPmf& pmf,
                             const sim::YieldQuery& base,
                             double pmf_cutoff = 1e-6);

}  // namespace dmfb::yield
