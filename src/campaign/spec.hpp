// Declarative campaign specs: one text file describes a whole sweep grid
// over the Monte-Carlo yield stack (design family x size x defect model x
// coverage policy x replacement pool; the `engine` key is kept, but has one
// behaviour).
//
// The format is a self-contained line-based `key = value` dialect — no
// external parser dependency. `#` starts a comment, lists are
// comma-separated, and every diagnostic carries the 1-based source line:
//
//   name    = fig9
//   runs    = 10000
//   seed    = 0xD0E5A11
//   design  = dtmb2_6, dtmb3_6, dtmb4_4
//   primaries = 60, 120, 240
//   injector = bernoulli
//   p       = 0.80, 0.85, 0.90
//   sink    = console, csv, jsonl
//
// Scalar keys (runs/seed/threads/...) configure the engine; list keys are
// sweep dimensions whose cross product the grid expander walks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "graph/matching.hpp"
#include "reconfig/local_reconfig.hpp"

namespace dmfb::campaign {

/// Chip design family evaluated at a grid point.
enum class Design : std::uint8_t {
  kNone,         ///< plain all-primary array (no-redundancy baseline)
  kDtmb1_6,
  kDtmb2_6,
  kDtmb2_6B,
  kDtmb3_6,
  kDtmb4_4,
  kMultiplexed,  ///< the Section-7 multiplexed diagnostics chip (fixed size)
};

/// Defect-injection model for the sweep.
enum class InjectorKind : std::uint8_t {
  kBernoulli,   ///< iid survival probability p (paper Section 6)
  kFixedCount,  ///< exactly m random cell failures (Fig. 13)
  kClustered,   ///< Poisson spot clusters (independence ablation)
  kParametric,  ///< Gaussian geometry deviations vs tolerance (Section 4)
  kMixture,     ///< ordered composition of the concrete kinds above
};

/// Artifact column name of the parameter an injector kind sweeps
/// ("p" / "m" / "mean_spots" / "sigma_scale"); also the spec key holding
/// that kind's value grid.
const char* param_name(InjectorKind kind) noexcept;

/// Artifact sinks a spec may request.
enum class SinkKind : std::uint8_t {
  kConsole,
  kMarkdown,
  kCsv,
  kJsonl,
};

/// What every Monte-Carlo run of the campaign evaluates.
enum class WorkloadKind : std::uint8_t {
  /// Structural repairability (the default; the Figs. 7/9/10 metric).
  kStructural,
  /// Operational completion of the multiplexed assay on the repaired array
  /// (the Figs. 12/13 metric). Requires `design = multiplexed`; rows gain
  /// the operational-yield and slowdown columns.
  kAssay,
};

const char* to_string(Design design) noexcept;
const char* to_string(InjectorKind kind) noexcept;
const char* to_string(SinkKind kind) noexcept;
const char* to_string(WorkloadKind workload) noexcept;

std::optional<Design> parse_design(std::string_view token) noexcept;
std::optional<InjectorKind> parse_injector(std::string_view token) noexcept;
std::optional<SinkKind> parse_sink(std::string_view token) noexcept;
std::optional<WorkloadKind> parse_workload(std::string_view token) noexcept;

/// Spec-file tokens for the reconfiguration vocabulary (round-trip safe;
/// reconfig::to_string is a display string, not a token).
const char* spec_token(reconfig::CoveragePolicy policy) noexcept;
/// Always "hopcroft_karp". Kept with the `engine` key, which perfbench's
/// serve mix and perfbench/layers.cpp still use; the next benchmark change
/// removes both.
const char* spec_token(graph::MatchingEngine engine) noexcept;
const char* spec_token(reconfig::ReplacementPool pool) noexcept;
std::optional<reconfig::CoveragePolicy> parse_policy(
    std::string_view token) noexcept;
/// "hopcroft_karp" and "auto" both parse to kHopcroftKarp, the one matching
/// algorithm; every other token is rejected.
std::optional<graph::MatchingEngine> parse_engine(
    std::string_view token) noexcept;
std::optional<reconfig::ReplacementPool> parse_pool(
    std::string_view token) noexcept;

/// Spec-file token for the injection draw contract ("v1" / "v2"); see
/// docs/API.md (determinism contract) for what the versions mean.
const char* spec_token(RngVersion version) noexcept;
std::optional<RngVersion> parse_rng_version(std::string_view token) noexcept;

/// Largest `primaries` value a spec (or a serve request) may ask for; the
/// smallest is 1.
inline constexpr std::int32_t kMaxPrimaries = 1'000'000;

/// Clustered-injector knobs shared by every clustered grid point.
struct ClusterParams {
  std::int32_t radius = 1;
  double core_kill = 0.9;
  double edge_kill = 0.3;
};

/// A parsed, validated campaign description.
struct CampaignSpec {
  std::string name = "campaign";
  std::int32_t runs = 10000;
  std::uint64_t seed = 0xD0E5A11ULL;
  /// Total worker budget: 0 = one per hardware thread.
  std::int32_t threads = 0;
  /// What each run evaluates (scalar knob, like `injector`).
  WorkloadKind workload = WorkloadKind::kStructural;
  /// Injection draw contract for every point (scalar knob; `rng_version`
  /// key). v1 is the golden default; v2 opts into counter-based streams.
  RngVersion rng_version = RngVersion::kV1;

  // -- sweep dimensions (cross product, in this order) ---------------------
  std::vector<Design> designs;
  /// Minimum primary-cell counts; ignored (collapsed to one entry) for the
  /// fixed-size multiplexed chip.
  std::vector<std::int32_t> primaries;
  InjectorKind injector = InjectorKind::kBernoulli;
  std::vector<double> p_grid;             ///< bernoulli survival probabilities
  std::vector<std::int32_t> m_grid;       ///< fixed-count failure counts
  std::vector<double> mean_spots_grid;    ///< clustered spot means
  std::vector<double> sigma_scale_grid;   ///< parametric sigma multipliers
  ClusterParams cluster;
  /// injector == kMixture only: the ordered concrete component kinds. Each
  /// kind may appear once; its parameter comes from that kind's grid key.
  std::vector<InjectorKind> mixture_components;
  std::vector<reconfig::CoveragePolicy> policies;
  /// Every entry is kHopcroftKarp; see spec_token(graph::MatchingEngine).
  std::vector<graph::MatchingEngine> engines;
  std::vector<reconfig::ReplacementPool> pools;

  std::vector<SinkKind> sinks;  ///< defaults to {console} when unset

  /// Grid values for one concrete injector kind, as doubles
  /// (p / m / mean_spots / sigma_scale).
  std::vector<double> param_grid_of(InjectorKind kind) const;
  /// Number of grid values for one concrete injector kind.
  std::size_t param_count_of(InjectorKind kind) const noexcept;
  /// The kind whose parameter the grid sweeps: `injector` itself, or — for
  /// a mixture — the component with a multi-valued grid (validation allows
  /// at most one), falling back to the first component.
  InjectorKind sweep_kind() const noexcept;
  /// The active parameter grid size (= param_count_of(sweep_kind())).
  std::size_t param_count() const noexcept;
};

/// One parse/validation diagnostic; line is 1-based, 0 for whole-spec errors.
struct SpecError {
  int line = 0;
  std::string message;
};

/// Outcome of parse_campaign_spec: spec is set iff errors is empty.
struct ParseResult {
  std::optional<CampaignSpec> spec;
  std::vector<SpecError> errors;

  bool ok() const noexcept { return spec.has_value(); }
  /// All diagnostics joined as "line N: message" lines (for CLI stderr).
  std::string error_text() const;
};

/// Parses and validates a spec source text.
ParseResult parse_campaign_spec(std::string_view text);

/// Serialises a spec back to the text format; parse(to_spec_text(s)) == s.
std::string to_spec_text(const CampaignSpec& spec);

}  // namespace dmfb::campaign
