// serve wire protocol: one JSON object per line in, one per line out.
//
// Requests use the campaign spec vocabulary (the same tokens a .campaign
// file uses), so a fig9 grid point and a serve query read identically:
//
//   {"id": 7, "design": "dtmb2_6", "primaries": 60,
//    "injector": "bernoulli", "param": 0.8,
//    "runs": 10000, "seed": 218786321, "policy": "all_faulty_primaries",
//    "engine": "hopcroft_karp", "pool": "spares_only",
//    "workload": "structural", "rng_version": "v1",
//    "target_ci_half_width": 0.0}
//
// Only design, injector and param are required; everything else defaults
// exactly like a campaign spec. `engine` accepts "hopcroft_karp" or "auto",
// both Hopcroft-Karp, and `primaries` lies in [1, campaign::kMaxPrimaries].
// `id` (number or string) is echoed back verbatim; when absent, the 1-based
// line number stands in. The parser is strict and flat: unknown keys,
// nested values, or malformed JSON reject the line with an error response
// (the daemon keeps serving). Mixture injectors are spec-file-only and not
// expressible over the wire.
//
// Responses (field order fixed; doubles carry max_digits10 = 17 significant
// digits, so equal estimates always serialize to equal bytes):
//
//   {"id": 7, "yield": 0.92, "ci_lo": ..., "ci_hi": ..., "runs": 10000,
//    "successes": 9200}
//
// assay-workload responses append op_yield/op_ci_lo/op_ci_hi/op_successes/
// mean_slowdown/worst_slowdown; rejected lines answer
//   {"id": 7, "error": "<message>"}
// in the same submission-order stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "campaign/spec.hpp"
#include "sim/session.hpp"

namespace dmfb::serve {

/// One parsed wire query, campaign-vocabulary fields resolved.
struct ServeRequest {
  std::string id;  ///< raw JSON token to echo (number or quoted string)
  campaign::Design design = campaign::Design::kDtmb2_6;
  /// In [1, campaign::kMaxPrimaries]; ignored for the multiplexed chip.
  std::int32_t min_primaries = 60;
  campaign::InjectorKind injector = campaign::InjectorKind::kBernoulli;
  double param = 0.0;
  campaign::ClusterParams cluster;  ///< radius/core_kill/edge_kill keys
  campaign::WorkloadKind workload = campaign::WorkloadKind::kStructural;
  RngVersion rng_version = RngVersion::kV1;
  std::int32_t runs = 10000;
  std::uint64_t seed = sim::kDefaultSeed;
  double target_ci_half_width = 0.0;
  reconfig::CoveragePolicy policy =
      reconfig::CoveragePolicy::kAllFaultyPrimaries;
  reconfig::ReplacementPool pool = reconfig::ReplacementPool::kSparesOnly;
};

/// Outcome of parsing one request line: request set iff error is empty.
struct ParsedRequest {
  std::optional<ServeRequest> request;
  std::string error;

  bool ok() const noexcept { return request.has_value(); }
};

/// Strictly parses one request line; `line_number` (1-based) becomes the
/// default id. Never throws — malformed input lands in `error`.
ParsedRequest parse_request(std::string_view line, std::uint64_t line_number);

/// The sim::FaultModel a parsed request injects per run.
sim::FaultModel fault_model_of(const ServeRequest& request);

/// The session query a request resolves to (inner threads fixed to 1: the
/// daemon parallelises across queries, not within one).
sim::YieldQuery query_of(const ServeRequest& request);

/// Response line for a structural estimate (no trailing newline).
std::string format_response(const ServeRequest& request,
                            const sim::YieldEstimate& estimate);

/// Response line for an operational (assay) estimate.
std::string format_response(const ServeRequest& request,
                            const sim::OperationalEstimate& estimate);

/// Error response line; `id` is the raw echo token.
std::string format_error(const std::string& id, std::string_view message);

/// Exact-double JSON number: max_digits10 shortest-round-trip formatting,
/// so the same double always renders the same bytes and parses back equal.
std::string json_double(double value);

}  // namespace dmfb::serve
