#include "core/design_advisor.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "biochip/redundancy.hpp"
#include "common/contracts.hpp"
#include "yield/analytic.hpp"

namespace dmfb::core {

const DesignAssessment& Advice::best_yield() const {
  DMFB_EXPECTS(!assessments.empty());
  return *std::max_element(assessments.begin(), assessments.end(),
                           [](const auto& a, const auto& b) {
                             return a.yield < b.yield;
                           });
}

const DesignAssessment& Advice::best_effective_yield() const {
  DMFB_EXPECTS(!assessments.empty());
  return *std::max_element(assessments.begin(), assessments.end(),
                           [](const auto& a, const auto& b) {
                             return a.effective_yield < b.effective_yield;
                           });
}

const DesignAssessment* Advice::cheapest_meeting(double target_yield) const {
  const DesignAssessment* best = nullptr;
  for (const DesignAssessment& assessment : assessments) {
    if (assessment.yield < target_yield) continue;
    if (best == nullptr ||
        assessment.redundancy_ratio < best->redundancy_ratio) {
      best = &assessment;
    }
  }
  return best;
}

DesignAdvisor::DesignAdvisor(std::int32_t min_primaries,
                             sim::YieldQuery base)
    : min_primaries_(min_primaries), base_(std::move(base)) {
  DMFB_EXPECTS(min_primaries > 0);
}

sim::YieldQuery DesignAdvisor::query_for(const sim::FaultModel& model) const {
  sim::YieldQuery query = base_;
  query.fault = model;
  return query;
}

sim::Session& DesignAdvisor::session_for(biochip::DtmbKind kind) const {
  const std::scoped_lock lock(sessions_mutex_);
  auto& session = sessions_[kind];
  if (!session) {
    session = std::make_unique<sim::Session>(
        biochip::make_dtmb_array_with_primaries(kind, min_primaries_));
  }
  return *session;  // map nodes are stable; Session::run is thread-safe
}

sim::Session& DesignAdvisor::baseline_session() const {
  const std::scoped_lock lock(sessions_mutex_);
  if (!baseline_session_) {
    // Same geometry as the campaign runner's `design = none` by
    // construction: both build biochip::make_plain_primary_array.
    baseline_session_ = std::make_unique<sim::Session>(
        biochip::make_plain_primary_array(min_primaries_));
  }
  return *baseline_session_;
}

std::vector<DesignAssessment> DesignAdvisor::assess_designs(
    const sim::FaultModel& model) const {
  std::vector<DesignAssessment> assessments;
  for (const biochip::DtmbKind kind :
       {biochip::DtmbKind::kDtmb1_6, biochip::DtmbKind::kDtmb2_6,
        biochip::DtmbKind::kDtmb3_6, biochip::DtmbKind::kDtmb4_4}) {
    sim::Session& session = session_for(kind);
    const biochip::HexArray& array = session.design().array();
    DesignAssessment assessment;
    assessment.kind = kind;
    assessment.name = std::string(biochip::dtmb_info(kind).name);
    assessment.redundancy_ratio = biochip::measured_redundancy_ratio(array);
    assessment.primaries = array.primary_count();
    assessment.total_cells = array.cell_count();
    assessment.yield = session.run(query_for(model)).value;
    assessment.effective_yield =
        yield::effective_yield(assessment.yield, assessment.redundancy_ratio);
    assessments.push_back(std::move(assessment));
  }
  return assessments;
}

Advice DesignAdvisor::assess(double p) const {
  DMFB_EXPECTS(p >= 0.0 && p <= 1.0);
  Advice advice;
  advice.p = p;

  // Baseline: no redundancy, yield = p^n exactly.
  {
    DesignAssessment none;
    none.kind = std::nullopt;
    none.name = "no-redundancy";
    none.redundancy_ratio = 0.0;
    none.primaries = min_primaries_;
    none.total_cells = min_primaries_;
    none.yield = yield::no_redundancy_yield(min_primaries_, p);
    none.effective_yield = none.yield;
    advice.assessments.push_back(std::move(none));
  }
  auto designs = assess_designs(sim::FaultModel::bernoulli(p));
  std::move(designs.begin(), designs.end(),
            std::back_inserter(advice.assessments));
  return advice;
}

Advice DesignAdvisor::assess_model(const sim::FaultModel& model) const {
  Advice advice;
  advice.p =
      model.kind == sim::FaultModel::Kind::kBernoulli ? model.param : 0.0;

  // No closed form exists for the general models: the no-redundancy
  // baseline runs through the same Monte-Carlo engine on a plain array.
  {
    sim::Session& session = baseline_session();
    const biochip::HexArray& array = session.design().array();
    DesignAssessment none;
    none.kind = std::nullopt;
    none.name = "no-redundancy";
    none.redundancy_ratio = 0.0;
    none.primaries = array.primary_count();
    none.total_cells = array.cell_count();
    none.yield = session.run(query_for(model)).value;
    none.effective_yield = none.yield;
    advice.assessments.push_back(std::move(none));
  }
  auto designs = assess_designs(model);
  std::move(designs.begin(), designs.end(),
            std::back_inserter(advice.assessments));
  return advice;
}

}  // namespace dmfb::core
