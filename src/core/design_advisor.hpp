// Design-space advisor (the engineering use of Fig. 10).
//
// Given a target number of primary cells and an expected per-cell survival
// probability p, evaluate every DTMB redundancy level (plus no redundancy):
// raw yield, redundancy ratio, effective yield EY = Y/(1+RR). The paper's
// conclusion — high redundancy pays off at low p, low redundancy at high
// p — falls out of ranking by effective yield.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "biochip/dtmb.hpp"
#include "sim/session.hpp"

namespace dmfb::core {

/// One design point evaluated at a given p.
struct DesignAssessment {
  /// nullopt = no redundancy (plain array of primaries).
  std::optional<biochip::DtmbKind> kind;
  std::string name;
  double redundancy_ratio = 0.0;
  std::int32_t primaries = 0;
  std::int32_t total_cells = 0;
  double yield = 0.0;
  double effective_yield = 0.0;
};

/// Full advice for one operating point.
struct Advice {
  /// Bernoulli survival probability of the operating point; 0 when the
  /// advice came from assess_model() with a non-bernoulli fault model.
  double p = 0.0;
  std::vector<DesignAssessment> assessments;  ///< in fixed design order

  /// Highest raw yield / highest effective yield entries.
  const DesignAssessment& best_yield() const;
  const DesignAssessment& best_effective_yield() const;
  /// Cheapest design (lowest RR) whose yield meets `target`; nullptr if none.
  const DesignAssessment* cheapest_meeting(double target_yield) const;
};

class DesignAdvisor {
 public:
  /// Evaluates designs sized to hold at least `min_primaries` primaries.
  /// Uses Monte-Carlo on the actual finite arrays, so boundary effects are
  /// included. `base.fault` is ignored; the remaining query knobs (runs,
  /// seed, threads, policy, pool) apply to every design.
  explicit DesignAdvisor(std::int32_t min_primaries,
                         sim::YieldQuery base = {});

  Advice assess(double p) const;

  /// Like assess(), but under any structured sim::FaultModel — including
  /// the parametric and mixture kinds with no Bernoulli equivalent. The
  /// no-redundancy baseline has no closed form here, so it runs through the
  /// same Monte-Carlo engine on a plain all-primary array (assess() keeps
  /// its exact p^n baseline and is bit-identical to earlier releases).
  Advice assess_model(const sim::FaultModel& model) const;

 private:
  sim::Session& session_for(biochip::DtmbKind kind) const;
  sim::Session& baseline_session() const;
  /// The four DTMB assessments (shared by both assess entry points).
  std::vector<DesignAssessment> assess_designs(
      const sim::FaultModel& model) const;

  /// `base_` with its fault model replaced by `model`.
  sim::YieldQuery query_for(const sim::FaultModel& model) const;

  std::int32_t min_primaries_;
  sim::YieldQuery base_;
  /// One reusable session per DTMB kind: assess() calls at different p share
  /// the design snapshots, matching skeletons and query caches. Guarded by
  /// sessions_mutex_ so concurrent assess() calls stay safe (assess() was
  /// stateless-const before the session port).
  mutable std::mutex sessions_mutex_;
  mutable std::map<biochip::DtmbKind, std::unique_ptr<sim::Session>>
      sessions_;
  /// Plain all-primary array for assess_model()'s Monte-Carlo baseline.
  mutable std::unique_ptr<sim::Session> baseline_session_;
};

}  // namespace dmfb::core
