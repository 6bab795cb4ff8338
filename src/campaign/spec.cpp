#include "campaign/spec.hpp"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <sstream>
#include <unordered_map>

#include "common/parse.hpp"
#include "sim/fault_model.hpp"

namespace dmfb::campaign {

namespace {

using common::parse_uint64;

constexpr std::int32_t kMaxRuns = 100'000'000;
constexpr std::int32_t kMaxThreads = 4096;
constexpr std::int32_t kMaxPrimaries = 1'000'000;
// sigma_scale multiplies the typical() process sigmas; 0 would degenerate
// the Gaussians and huge values only saturate the fault probability at 1.
constexpr double kMinSigmaScale = 1e-6;
constexpr double kMaxSigmaScale = 1000.0;

struct TokenPair {
  std::string_view token;
  std::uint8_t value;
};

constexpr TokenPair kDesignTokens[] = {
    {"none", static_cast<std::uint8_t>(Design::kNone)},
    {"dtmb1_6", static_cast<std::uint8_t>(Design::kDtmb1_6)},
    {"dtmb2_6", static_cast<std::uint8_t>(Design::kDtmb2_6)},
    {"dtmb2_6b", static_cast<std::uint8_t>(Design::kDtmb2_6B)},
    {"dtmb3_6", static_cast<std::uint8_t>(Design::kDtmb3_6)},
    {"dtmb4_4", static_cast<std::uint8_t>(Design::kDtmb4_4)},
    {"multiplexed", static_cast<std::uint8_t>(Design::kMultiplexed)},
};

constexpr TokenPair kInjectorTokens[] = {
    {"bernoulli", static_cast<std::uint8_t>(InjectorKind::kBernoulli)},
    {"fixed_count", static_cast<std::uint8_t>(InjectorKind::kFixedCount)},
    {"clustered", static_cast<std::uint8_t>(InjectorKind::kClustered)},
    {"parametric", static_cast<std::uint8_t>(InjectorKind::kParametric)},
    {"mixture", static_cast<std::uint8_t>(InjectorKind::kMixture)},
};

constexpr TokenPair kSinkTokens[] = {
    {"console", static_cast<std::uint8_t>(SinkKind::kConsole)},
    {"markdown", static_cast<std::uint8_t>(SinkKind::kMarkdown)},
    {"csv", static_cast<std::uint8_t>(SinkKind::kCsv)},
    {"jsonl", static_cast<std::uint8_t>(SinkKind::kJsonl)},
};

constexpr TokenPair kWorkloadTokens[] = {
    {"structural", static_cast<std::uint8_t>(WorkloadKind::kStructural)},
    {"assay", static_cast<std::uint8_t>(WorkloadKind::kAssay)},
};

constexpr TokenPair kRngVersionTokens[] = {
    {"v1", static_cast<std::uint8_t>(RngVersion::kV1)},
    {"v2", static_cast<std::uint8_t>(RngVersion::kV2)},
};

constexpr TokenPair kPolicyTokens[] = {
    {"all_faulty_primaries",
     static_cast<std::uint8_t>(reconfig::CoveragePolicy::kAllFaultyPrimaries)},
    {"used_faulty_primaries",
     static_cast<std::uint8_t>(
         reconfig::CoveragePolicy::kUsedFaultyPrimaries)},
};

constexpr TokenPair kEngineTokens[] = {
    {"hopcroft_karp",
     static_cast<std::uint8_t>(graph::MatchingEngine::kHopcroftKarp)},
    {"kuhn", static_cast<std::uint8_t>(graph::MatchingEngine::kKuhn)},
    {"dinic", static_cast<std::uint8_t>(graph::MatchingEngine::kDinic)},
    {"push_relabel",
     static_cast<std::uint8_t>(graph::MatchingEngine::kPushRelabel)},
    {"auto", static_cast<std::uint8_t>(graph::MatchingEngine::kAuto)},
};

constexpr TokenPair kPoolTokens[] = {
    {"spares_only",
     static_cast<std::uint8_t>(reconfig::ReplacementPool::kSparesOnly)},
    {"spares_and_unused_primaries",
     static_cast<std::uint8_t>(
         reconfig::ReplacementPool::kSparesAndUnusedPrimaries)},
};

template <typename Enum, std::size_t N>
std::optional<Enum> lookup(const TokenPair (&table)[N],
                           std::string_view token) noexcept {
  for (const TokenPair& entry : table) {
    if (entry.token == token) return static_cast<Enum>(entry.value);
  }
  return std::nullopt;
}

template <std::size_t N>
const char* reverse_lookup(const TokenPair (&table)[N],
                           std::uint8_t value) noexcept {
  for (const TokenPair& entry : table) {
    if (entry.value == value) return entry.token.data();
  }
  return "?";
}

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

std::vector<std::string_view> split_list(std::string_view value) {
  std::vector<std::string_view> items;
  while (true) {
    const std::size_t comma = value.find(',');
    items.push_back(trim(value.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    value.remove_prefix(comma + 1);
  }
  return items;
}

/// Parser state: accumulates the spec and the diagnostics side by side.
class SpecParser {
 public:
  ParseResult parse(std::string_view text) {
    int line_no = 0;
    while (!text.empty()) {
      const std::size_t newline = text.find('\n');
      std::string_view line = text.substr(0, newline);
      text.remove_prefix(newline == std::string_view::npos ? text.size()
                                                           : newline + 1);
      ++line_no;
      handle_line(trim(line.substr(0, line.find('#'))), line_no);
    }
    validate();
    ParseResult result;
    result.errors = std::move(errors_);
    if (result.errors.empty()) result.spec = std::move(spec_);
    return result;
  }

 private:
  void error(int line, std::string message) {
    errors_.push_back({line, std::move(message)});
  }

  void handle_line(std::string_view line, int line_no) {
    if (line.empty()) return;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      error(line_no, "expected 'key = value', got '" + std::string(line) + "'");
      return;
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string_view value = trim(line.substr(eq + 1));
    if (key.empty()) {
      error(line_no, "missing key before '='");
      return;
    }
    if (value.empty()) {
      error(line_no, "missing value for key '" + key + "'");
      return;
    }
    if (!seen_.insert({key, line_no}).second) {
      error(line_no, "duplicate key '" + key + "' (first set on line " +
                         std::to_string(seen_[key]) + ")");
      return;
    }
    dispatch(key, value, line_no);
  }

  // Campaign names become artifact file names (<out>/<name>.csv) and CSV /
  // JSON cells, so they are restricted to a path- and quoting-safe token:
  // alnum first, then alnum / '.' / '_' / '-'.
  static bool valid_name(std::string_view name) noexcept {
    if (name.empty() || !std::isalnum(static_cast<unsigned char>(name[0]))) {
      return false;
    }
    for (const char ch : name) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '.' &&
          ch != '_' && ch != '-') {
        return false;
      }
    }
    return true;
  }

  void dispatch(const std::string& key, std::string_view value, int line_no) {
    if (key == "name") {
      if (valid_name(value)) {
        spec_.name = std::string(value);
      } else {
        error(line_no, "bad value for 'name': '" + std::string(value) +
                           "' (must start alphanumeric and use only "
                           "alphanumerics, '.', '_', '-')");
      }
    } else if (key == "runs") {
      scalar_int(key, value, line_no, 1, kMaxRuns, spec_.runs);
    } else if (key == "threads") {
      scalar_int(key, value, line_no, 0, kMaxThreads, spec_.threads);
    } else if (key == "seed") {
      if (const auto seed = parse_uint64(value)) {
        spec_.seed = *seed;
      } else {
        error(line_no, "bad value for 'seed': '" + std::string(value) +
                           "' (expected a uint64, decimal or 0x-hex)");
      }
    } else if (key == "rng_version") {
      if (const auto version = parse_rng_version(value)) {
        spec_.rng_version = *version;
      } else {
        error(line_no, bad_token_message(key, value, kRngVersionTokens));
      }
    } else if (key == "design") {
      token_list(key, value, line_no, parse_design, kDesignTokens,
                 spec_.designs);
    } else if (key == "primaries") {
      int_list(key, value, line_no, 1, kMaxPrimaries, spec_.primaries);
    } else if (key == "workload") {
      if (const auto workload = parse_workload(value)) {
        spec_.workload = *workload;
      } else {
        error(line_no, bad_token_message(key, value, kWorkloadTokens));
      }
    } else if (key == "injector") {
      if (const auto kind = parse_injector(value)) {
        spec_.injector = *kind;
      } else {
        error(line_no, bad_token_message(key, value, kInjectorTokens));
      }
    } else if (key == "p") {
      double_list(key, value, line_no, 0.0, 1.0, spec_.p_grid);
    } else if (key == "m") {
      int_list(key, value, line_no, 0, kMaxPrimaries, spec_.m_grid);
    } else if (key == "mean_spots") {
      double_list(key, value, line_no, 0.0, sim::kMaxMeanSpots,
                  spec_.mean_spots_grid);
    } else if (key == "sigma_scale") {
      double_list(key, value, line_no, kMinSigmaScale, kMaxSigmaScale,
                  spec_.sigma_scale_grid);
    } else if (key == "components") {
      token_list(key, value, line_no, parse_injector, kInjectorTokens,
                 spec_.mixture_components);
    } else if (key == "cluster_radius") {
      scalar_int(key, value, line_no, 0, sim::kMaxClusterRadius,
                 spec_.cluster.radius);
    } else if (key == "core_kill") {
      scalar_double(key, value, line_no, 0.0, 1.0, spec_.cluster.core_kill);
    } else if (key == "edge_kill") {
      scalar_double(key, value, line_no, 0.0, 1.0, spec_.cluster.edge_kill);
    } else if (key == "policy") {
      token_list(key, value, line_no, parse_policy, kPolicyTokens,
                 spec_.policies);
    } else if (key == "engine") {
      token_list(key, value, line_no, parse_engine, kEngineTokens,
                 spec_.engines);
    } else if (key == "pool") {
      token_list(key, value, line_no, parse_pool, kPoolTokens, spec_.pools);
    } else if (key == "sink") {
      token_list(key, value, line_no, parse_sink, kSinkTokens, spec_.sinks);
    } else {
      error(line_no, "unknown key '" + key + "'");
    }
  }

  template <typename Int>
  void scalar_int(const std::string& key, std::string_view value, int line_no,
                  std::int64_t lo, std::int64_t hi, Int& out) {
    if (const auto parsed = common::parse_int_in(value, lo, hi)) {
      out = static_cast<Int>(*parsed);
    } else {
      error(line_no, "bad value for '" + key + "': '" + std::string(value) +
                         "' (expected integer in [" + std::to_string(lo) +
                         ", " + std::to_string(hi) + "])");
    }
  }

  void scalar_double(const std::string& key, std::string_view value,
                     int line_no, double lo, double hi, double& out) {
    if (const auto parsed = common::parse_double_in(value, lo, hi)) {
      out = *parsed;
    } else {
      error(line_no, "bad value for '" + key + "': '" + std::string(value) +
                         "' (expected number in [" + std::to_string(lo) +
                         ", " + std::to_string(hi) + "])");
    }
  }

  void int_list(const std::string& key, std::string_view value, int line_no,
                std::int64_t lo, std::int64_t hi,
                std::vector<std::int32_t>& out) {
    for (const std::string_view item : split_list(value)) {
      if (const auto parsed = common::parse_int_in(item, lo, hi)) {
        out.push_back(static_cast<std::int32_t>(*parsed));
      } else {
        error(line_no, "bad item in '" + key + "' list: '" +
                           std::string(item) + "' (expected integer in [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "])");
      }
    }
  }

  void double_list(const std::string& key, std::string_view value, int line_no,
                   double lo, double hi, std::vector<double>& out) {
    for (const std::string_view item : split_list(value)) {
      if (const auto parsed = common::parse_double_in(item, lo, hi)) {
        out.push_back(*parsed);
      } else {
        error(line_no, "bad item in '" + key + "' list: '" +
                           std::string(item) + "' (expected number in [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "])");
      }
    }
  }

  template <typename Enum, typename ParseFn, std::size_t N>
  void token_list(const std::string& key, std::string_view value, int line_no,
                  const ParseFn& parse_fn, const TokenPair (&table)[N],
                  std::vector<Enum>& out) {
    for (const std::string_view item : split_list(value)) {
      if (const auto parsed = parse_fn(item)) {
        out.push_back(*parsed);
      } else {
        error(line_no, bad_token_message(key, item, table));
      }
    }
  }

  template <std::size_t N>
  static std::string bad_token_message(const std::string& key,
                                       std::string_view item,
                                       const TokenPair (&table)[N]) {
    std::string message = "bad value for '" + key + "': '" +
                          std::string(item) + "' (expected one of: ";
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) message += ", ";
      message += table[i].token;
    }
    return message + ")";
  }

  int line_of(const std::string& key) const {
    const auto found = seen_.find(key);
    return found == seen_.end() ? 0 : found->second;
  }

  void validate_mixture() {
    if (spec_.mixture_components.empty()) {
      error(line_of("injector"),
            "injector 'mixture' needs a non-empty 'components' list");
      return;
    }
    std::vector<InjectorKind> seen_kinds;
    for (const InjectorKind kind : spec_.mixture_components) {
      if (kind == InjectorKind::kMixture) {
        error(line_of("components"),
              "mixture components must be concrete injectors "
              "(nested 'mixture' is not allowed)");
        return;
      }
      if (std::find(seen_kinds.begin(), seen_kinds.end(), kind) !=
          seen_kinds.end()) {
        error(line_of("components"),
              std::string("duplicate mixture component '") + to_string(kind) +
                  "' (each kind may appear at most once)");
        return;
      }
      seen_kinds.push_back(kind);
      if (spec_.param_count_of(kind) == 0) {
        error(line_of("components"),
              std::string("mixture component '") + to_string(kind) +
                  "' needs a non-empty '" + param_name(kind) + "' list");
      }
    }
    // One component may sweep (multi-valued grid); the rest pin a single
    // value, so every grid point stays a single (param, estimate) row.
    std::vector<const char*> swept;
    for (const InjectorKind kind : spec_.mixture_components) {
      if (spec_.param_count_of(kind) > 1) swept.push_back(param_name(kind));
    }
    if (swept.size() > 1) {
      std::string message =
          "a mixture sweeps at most one component parameter, but ";
      for (std::size_t i = 0; i < swept.size(); ++i) {
        if (i > 0) message += i + 1 == swept.size() ? " and " : ", ";
        message += std::string("'") + swept[i] + "'";
      }
      message += " all have multiple values";
      error(line_of("components"), std::move(message));
    }
  }

  void validate() {
    if (!errors_.empty()) return;  // parse errors already explain the spec
    if (spec_.designs.empty()) {
      error(0, "spec must set 'design' to at least one design");
    }
    if (spec_.workload == WorkloadKind::kAssay &&
        std::any_of(spec_.designs.begin(), spec_.designs.end(),
                    [](Design d) { return d != Design::kMultiplexed; })) {
      error(line_of("workload"),
            "workload 'assay' runs the Section-7 multiplexed bioassay and "
            "requires 'design = multiplexed'");
    }
    const bool needs_primaries =
        std::any_of(spec_.designs.begin(), spec_.designs.end(),
                    [](Design d) { return d != Design::kMultiplexed; });
    if (needs_primaries && spec_.primaries.empty()) {
      error(0, "spec sweeps sized designs but sets no 'primaries' list");
    }
    switch (spec_.injector) {
      case InjectorKind::kBernoulli:
      case InjectorKind::kFixedCount:
      case InjectorKind::kClustered:
      case InjectorKind::kParametric:
        if (spec_.param_count_of(spec_.injector) == 0) {
          error(line_of("injector"),
                std::string("injector '") + to_string(spec_.injector) +
                    "' needs a non-empty '" + param_name(spec_.injector) +
                    "' list");
        }
        break;
      case InjectorKind::kMixture:
        validate_mixture();
        break;
    }
    if (!spec_.mixture_components.empty() &&
        spec_.injector != InjectorKind::kMixture) {
      error(line_of("components"),
            "'components' requires 'injector = mixture'");
    }
    if (spec_.cluster.edge_kill > spec_.cluster.core_kill) {
      error(line_of("edge_kill"),
            "'edge_kill' must not exceed 'core_kill' (kill probability "
            "decays from core to rim)");
    }
    if (spec_.policies.empty()) {
      spec_.policies.push_back(reconfig::CoveragePolicy::kAllFaultyPrimaries);
    }
    if (spec_.engines.empty()) {
      spec_.engines.push_back(graph::MatchingEngine::kHopcroftKarp);
    }
    if (spec_.pools.empty()) {
      spec_.pools.push_back(reconfig::ReplacementPool::kSparesOnly);
    }
    if (spec_.sinks.empty()) spec_.sinks.push_back(SinkKind::kConsole);
    // Dedupe sinks (keeping first occurrence) so no consumer ever opens the
    // same artifact file twice.
    std::vector<SinkKind> unique_sinks;
    for (const SinkKind sink : spec_.sinks) {
      if (std::find(unique_sinks.begin(), unique_sinks.end(), sink) ==
          unique_sinks.end()) {
        unique_sinks.push_back(sink);
      }
    }
    spec_.sinks = std::move(unique_sinks);
  }

  CampaignSpec spec_;
  std::vector<SpecError> errors_;
  std::unordered_map<std::string, int> seen_;
};

}  // namespace

const char* to_string(Design design) noexcept {
  return reverse_lookup(kDesignTokens, static_cast<std::uint8_t>(design));
}

const char* to_string(InjectorKind kind) noexcept {
  return reverse_lookup(kInjectorTokens, static_cast<std::uint8_t>(kind));
}

const char* to_string(SinkKind kind) noexcept {
  return reverse_lookup(kSinkTokens, static_cast<std::uint8_t>(kind));
}

std::optional<Design> parse_design(std::string_view token) noexcept {
  return lookup<Design>(kDesignTokens, token);
}

std::optional<InjectorKind> parse_injector(std::string_view token) noexcept {
  return lookup<InjectorKind>(kInjectorTokens, token);
}

std::optional<SinkKind> parse_sink(std::string_view token) noexcept {
  return lookup<SinkKind>(kSinkTokens, token);
}

const char* to_string(WorkloadKind workload) noexcept {
  return reverse_lookup(kWorkloadTokens, static_cast<std::uint8_t>(workload));
}

std::optional<WorkloadKind> parse_workload(std::string_view token) noexcept {
  return lookup<WorkloadKind>(kWorkloadTokens, token);
}

const char* spec_token(reconfig::CoveragePolicy policy) noexcept {
  return reverse_lookup(kPolicyTokens, static_cast<std::uint8_t>(policy));
}

const char* spec_token(graph::MatchingEngine engine) noexcept {
  return reverse_lookup(kEngineTokens, static_cast<std::uint8_t>(engine));
}

const char* spec_token(reconfig::ReplacementPool pool) noexcept {
  return reverse_lookup(kPoolTokens, static_cast<std::uint8_t>(pool));
}

std::optional<reconfig::CoveragePolicy> parse_policy(
    std::string_view token) noexcept {
  return lookup<reconfig::CoveragePolicy>(kPolicyTokens, token);
}

std::optional<graph::MatchingEngine> parse_engine(
    std::string_view token) noexcept {
  return lookup<graph::MatchingEngine>(kEngineTokens, token);
}

std::optional<reconfig::ReplacementPool> parse_pool(
    std::string_view token) noexcept {
  return lookup<reconfig::ReplacementPool>(kPoolTokens, token);
}

const char* spec_token(RngVersion version) noexcept {
  return reverse_lookup(kRngVersionTokens, static_cast<std::uint8_t>(version));
}

std::optional<RngVersion> parse_rng_version(std::string_view token) noexcept {
  return lookup<RngVersion>(kRngVersionTokens, token);
}

const char* param_name(InjectorKind kind) noexcept {
  switch (kind) {
    case InjectorKind::kBernoulli: return "p";
    case InjectorKind::kFixedCount: return "m";
    case InjectorKind::kClustered: return "mean_spots";
    case InjectorKind::kParametric: return "sigma_scale";
    case InjectorKind::kMixture: return "mixture";  // no grid of its own
  }
  return "?";
}

std::vector<double> CampaignSpec::param_grid_of(InjectorKind kind) const {
  switch (kind) {
    case InjectorKind::kBernoulli: return p_grid;
    case InjectorKind::kFixedCount: {
      std::vector<double> values;
      values.reserve(m_grid.size());
      for (const std::int32_t m : m_grid) values.push_back(m);
      return values;
    }
    case InjectorKind::kClustered: return mean_spots_grid;
    case InjectorKind::kParametric: return sigma_scale_grid;
    case InjectorKind::kMixture: break;  // a mixture has no grid of its own
  }
  return {};
}

std::size_t CampaignSpec::param_count_of(InjectorKind kind) const noexcept {
  switch (kind) {
    case InjectorKind::kBernoulli: return p_grid.size();
    case InjectorKind::kFixedCount: return m_grid.size();
    case InjectorKind::kClustered: return mean_spots_grid.size();
    case InjectorKind::kParametric: return sigma_scale_grid.size();
    case InjectorKind::kMixture: break;
  }
  return 0;
}

InjectorKind CampaignSpec::sweep_kind() const noexcept {
  if (injector != InjectorKind::kMixture) return injector;
  for (const InjectorKind kind : mixture_components) {
    if (param_count_of(kind) > 1) return kind;
  }
  return mixture_components.empty() ? InjectorKind::kBernoulli
                                    : mixture_components.front();
}

std::size_t CampaignSpec::param_count() const noexcept {
  return param_count_of(sweep_kind());
}

std::string ParseResult::error_text() const {
  std::ostringstream out;
  for (const SpecError& err : errors) {
    if (err.line > 0) out << "line " << err.line << ": ";
    out << err.message << '\n';
  }
  return out.str();
}

ParseResult parse_campaign_spec(std::string_view text) {
  return SpecParser{}.parse(text);
}

namespace {

template <typename Seq, typename Format>
std::string join(const Seq& items, const Format& format) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += format(items[i]);
  }
  return out;
}

std::string format_grid_double(double value) {
  // Shortest representation that round-trips exactly, so the documented
  // parse(to_spec_text(s)) == s contract holds for every double.
  for (int precision = 6; precision <= 17; ++precision) {
    std::ostringstream out;
    out << std::setprecision(precision) << value;
    if (const auto back = common::parse_double(out.str());
        back && *back == value) {
      return out.str();
    }
  }
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

std::string to_spec_text(const CampaignSpec& spec) {
  std::ostringstream out;
  out << "name = " << spec.name << '\n';
  out << "runs = " << spec.runs << '\n';
  out << "seed = 0x" << std::hex << spec.seed << std::dec << '\n';
  out << "threads = " << spec.threads << '\n';
  out << "rng_version = " << spec_token(spec.rng_version) << '\n';
  out << "design = "
      << join(spec.designs, [](Design d) { return std::string(to_string(d)); })
      << '\n';
  if (!spec.primaries.empty()) {
    out << "primaries = "
        << join(spec.primaries,
                [](std::int32_t n) { return std::to_string(n); })
        << '\n';
  }
  out << "workload = " << to_string(spec.workload) << '\n';
  out << "injector = " << to_string(spec.injector) << '\n';
  const auto emit_kind_grid = [&](InjectorKind kind) {
    switch (kind) {
      case InjectorKind::kBernoulli:
        out << "p = " << join(spec.p_grid, format_grid_double) << '\n';
        break;
      case InjectorKind::kFixedCount:
        out << "m = "
            << join(spec.m_grid,
                    [](std::int32_t m) { return std::to_string(m); })
            << '\n';
        break;
      case InjectorKind::kClustered:
        out << "mean_spots = "
            << join(spec.mean_spots_grid, format_grid_double) << '\n';
        out << "cluster_radius = " << spec.cluster.radius << '\n';
        out << "core_kill = " << format_grid_double(spec.cluster.core_kill)
            << '\n';
        out << "edge_kill = " << format_grid_double(spec.cluster.edge_kill)
            << '\n';
        break;
      case InjectorKind::kParametric:
        out << "sigma_scale = "
            << join(spec.sigma_scale_grid, format_grid_double) << '\n';
        break;
      case InjectorKind::kMixture:
        break;  // handled below; mixtures never nest
    }
  };
  if (spec.injector == InjectorKind::kMixture) {
    out << "components = "
        << join(spec.mixture_components,
                [](InjectorKind k) { return std::string(to_string(k)); })
        << '\n';
    for (const InjectorKind kind : spec.mixture_components) {
      emit_kind_grid(kind);
    }
  } else {
    emit_kind_grid(spec.injector);
  }
  out << "policy = "
      << join(spec.policies,
              [](reconfig::CoveragePolicy p) {
                return std::string(spec_token(p));
              })
      << '\n';
  out << "engine = "
      << join(spec.engines,
              [](graph::MatchingEngine e) {
                return std::string(spec_token(e));
              })
      << '\n';
  out << "pool = "
      << join(spec.pools,
              [](reconfig::ReplacementPool p) {
                return std::string(spec_token(p));
              })
      << '\n';
  out << "sink = "
      << join(spec.sinks,
              [](SinkKind s) { return std::string(to_string(s)); })
      << '\n';
  return out.str();
}

}  // namespace dmfb::campaign
