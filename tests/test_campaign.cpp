// Tests for the campaign engine: spec parsing and diagnostics, round-trip
// serialisation, grid expansion, dedupe accounting, thread-count invariance
// of the artifacts, spec/file sync, and the Fig. 9 golden CSV.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "campaign/builtin.hpp"
#include "common/contracts.hpp"
#include "campaign/grid.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "sim/session.hpp"

namespace dmfb::campaign {
namespace {

CampaignSpec parse_or_die(std::string_view text) {
  ParseResult result = parse_campaign_spec(text);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(*result.spec);
}

// A grid point's identity as the runner dedupes it and a store keys it:
// its (design, size) plus the query_key of its session query.
std::string identity_of(const CampaignPoint& point, const CampaignSpec& spec) {
  return std::string(to_string(point.design)) + '/' +
         std::to_string(point.min_primaries) + '|' +
         sim::query_key(query_of(point, spec, 1));
}

// A tiny fast campaign for runner-behaviour tests.
constexpr std::string_view kTinySpec =
    R"(name = tiny
runs = 64
seed = 42
design = dtmb2_6
primaries = 30
injector = bernoulli
p = 0.90, 0.95
)";

// ------------------------------------------------------------------ parsing

TEST(CampaignSpecParse, Fig9BuiltinParses) {
  const CampaignSpec spec = parse_or_die(builtin_campaign("fig9"));
  EXPECT_EQ(spec.name, "fig9");
  EXPECT_EQ(spec.runs, 10000);
  EXPECT_EQ(spec.seed, 0xD0E5A11ULL);
  EXPECT_EQ(spec.threads, 0);
  EXPECT_EQ(spec.designs,
            (std::vector<Design>{Design::kDtmb2_6, Design::kDtmb3_6,
                                 Design::kDtmb4_4}));
  EXPECT_EQ(spec.primaries, (std::vector<std::int32_t>{60, 120, 240}));
  EXPECT_EQ(spec.injector, InjectorKind::kBernoulli);
  EXPECT_EQ(spec.p_grid.size(), 9u);
  EXPECT_DOUBLE_EQ(spec.p_grid.front(), 0.80);
  EXPECT_DOUBLE_EQ(spec.p_grid.back(), 0.99);
  // Unset dimensions get engine defaults.
  EXPECT_EQ(spec.policies, (std::vector<reconfig::CoveragePolicy>{
                               reconfig::CoveragePolicy::kAllFaultyPrimaries}));
  EXPECT_EQ(spec.engines, (std::vector<graph::MatchingEngine>{
                              graph::MatchingEngine::kHopcroftKarp}));
  EXPECT_EQ(spec.pools, (std::vector<reconfig::ReplacementPool>{
                            reconfig::ReplacementPool::kSparesOnly}));
  EXPECT_EQ(spec.sinks,
            (std::vector<SinkKind>{SinkKind::kConsole, SinkKind::kCsv,
                                   SinkKind::kJsonl}));
}

TEST(CampaignSpecParse, AllBuiltinsParse) {
  for (const std::string_view name : builtin_campaign_names()) {
    const ParseResult result = parse_campaign_spec(builtin_campaign(name));
    EXPECT_TRUE(result.ok()) << name << ": " << result.error_text();
  }
}

TEST(CampaignSpecParse, RoundTripThroughSpecText) {
  for (const std::string_view name : builtin_campaign_names()) {
    const CampaignSpec original = parse_or_die(builtin_campaign(name));
    const CampaignSpec reparsed = parse_or_die(to_spec_text(original));
    EXPECT_EQ(original.name, reparsed.name);
    EXPECT_EQ(original.runs, reparsed.runs);
    EXPECT_EQ(original.seed, reparsed.seed);
    EXPECT_EQ(original.threads, reparsed.threads);
    EXPECT_EQ(original.rng_version, reparsed.rng_version);
    EXPECT_EQ(original.designs, reparsed.designs);
    EXPECT_EQ(original.primaries, reparsed.primaries);
    EXPECT_EQ(original.injector, reparsed.injector);
    EXPECT_EQ(original.p_grid, reparsed.p_grid);
    EXPECT_EQ(original.m_grid, reparsed.m_grid);
    EXPECT_EQ(original.mean_spots_grid, reparsed.mean_spots_grid);
    EXPECT_EQ(original.sigma_scale_grid, reparsed.sigma_scale_grid);
    EXPECT_EQ(original.mixture_components, reparsed.mixture_components);
    EXPECT_EQ(original.workload, reparsed.workload);
    EXPECT_EQ(original.policies, reparsed.policies);
    EXPECT_EQ(original.engines, reparsed.engines);
    EXPECT_EQ(original.pools, reparsed.pools);
    EXPECT_EQ(original.sinks, reparsed.sinks);
  }
}

// ----------------------------------------------------------- workload axis

TEST(CampaignSpecParse, OperationalBuiltinSelectsTheAssayWorkload) {
  const CampaignSpec spec = parse_or_die(builtin_campaign("fig13_operational"));
  EXPECT_EQ(spec.workload, WorkloadKind::kAssay);
  EXPECT_EQ(spec.designs, (std::vector<Design>{Design::kMultiplexed}));
  EXPECT_EQ(spec.injector, InjectorKind::kFixedCount);
  // Structural stays the default everywhere else.
  EXPECT_EQ(parse_or_die(builtin_campaign("fig13")).workload,
            WorkloadKind::kStructural);
}

TEST(CampaignSpecParse, UnknownWorkloadListsTheAlternatives) {
  const ParseResult result = parse_campaign_spec(
      "design = multiplexed\n"
      "workload = fluidic\n"
      "m = 5\n"
      "injector = fixed_count\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 2);
  EXPECT_NE(result.errors[0].message.find("structural"), std::string::npos);
  EXPECT_NE(result.errors[0].message.find("assay"), std::string::npos);
}

TEST(CampaignSpecParse, AssayWorkloadRequiresTheMultiplexedChip) {
  const ParseResult result = parse_campaign_spec(
      "workload = assay\n"
      "design = dtmb2_6, multiplexed\n"
      "primaries = 60\n"
      "injector = fixed_count\n"
      "m = 5\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 1);  // anchored at the workload key
  EXPECT_NE(result.errors[0].message.find("multiplexed"), std::string::npos);
}

TEST(CampaignGridWorkload, PointsInheritTheWorkloadAndKeyOnIt) {
  CampaignSpec spec = parse_or_die(builtin_campaign("fig13_operational"));
  const std::vector<CampaignPoint> points = expand_grid(spec);
  ASSERT_FALSE(points.empty());
  for (const CampaignPoint& point : points) {
    EXPECT_EQ(point.workload, WorkloadKind::kAssay);
  }
  CampaignPoint structural = points.front();
  structural.workload = WorkloadKind::kStructural;
  EXPECT_NE(identity_of(structural, spec), identity_of(points.front(), spec));
}

// ------------------------------------------------------- rng_version axis

TEST(CampaignSpecParse, RngVersionDefaultsToV1AndParsesV2) {
  const CampaignSpec v1 = parse_or_die(
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9\n");
  EXPECT_EQ(v1.rng_version, RngVersion::kV1);

  const CampaignSpec v2 = parse_or_die(
      "rng_version = v2\n"
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9\n");
  EXPECT_EQ(v2.rng_version, RngVersion::kV2);
}

TEST(CampaignSpecParse, UnknownRngVersionListsTheAlternatives) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\n"
      "rng_version = v3\n"
      "primaries = 10\n"
      "p = 0.9\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 2);
  EXPECT_NE(result.errors[0].message.find("v1"), std::string::npos);
  EXPECT_NE(result.errors[0].message.find("v2"), std::string::npos);
}

TEST(CampaignSpecParse, EngineAcceptsHopcroftKarpAndAutoOnly) {
  // Both tokens name the one matching algorithm, and `auto` prints back as
  // hopcroft_karp.
  const CampaignSpec spec = parse_or_die(
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9\n"
      "engine = auto, hopcroft_karp\n");
  EXPECT_EQ(spec.engines, (std::vector<graph::MatchingEngine>{
                              graph::MatchingEngine::kHopcroftKarp,
                              graph::MatchingEngine::kHopcroftKarp}));
  EXPECT_NE(to_spec_text(spec).find("engine = hopcroft_karp, hopcroft_karp\n"),
            std::string::npos);
  for (const std::string removed : {"kuhn", "dinic", "push_relabel"}) {
    const ParseResult result = parse_campaign_spec(
        "design = dtmb2_6\n"
        "engine = hopcroft_karp, " + removed + "\n"
        "primaries = 10\n"
        "p = 0.9\n");
    ASSERT_FALSE(result.ok()) << removed;
    ASSERT_EQ(result.errors.size(), 1u) << removed;
    EXPECT_EQ(result.errors[0].line, 2) << removed;
    EXPECT_NE(result.errors[0].message.find("'" + removed + "'"),
              std::string::npos)
        << result.errors[0].message;
  }
}

TEST(CampaignGridRngVersion, PointsInheritTheVersionAndKeyOnIt) {
  CampaignSpec spec = parse_or_die(builtin_campaign("fig9_smoke_v2"));
  EXPECT_EQ(spec.rng_version, RngVersion::kV2);
  const std::vector<CampaignPoint> points = expand_grid(spec);
  ASSERT_FALSE(points.empty());
  for (const CampaignPoint& point : points) {
    EXPECT_EQ(point.rng_version, RngVersion::kV2);
  }
  CampaignPoint v1 = points.front();
  v1.rng_version = RngVersion::kV1;
  EXPECT_NE(identity_of(v1, spec), identity_of(points.front(), spec));
}

TEST(CampaignSpecParse, UnknownKeyIsDiagnosedWithLine) {
  const ParseResult result = parse_campaign_spec(
      "name = x\n"
      "frobnicate = 7\n"
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 2);
  EXPECT_NE(result.errors[0].message.find("frobnicate"), std::string::npos);
  EXPECT_NE(result.error_text().find("line 2"), std::string::npos);
}

TEST(CampaignSpecParse, BadRangeIsDiagnosedWithLine) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9, 1.5\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 3);
  EXPECT_NE(result.errors[0].message.find("1.5"), std::string::npos);
}

TEST(CampaignSpecParse, GarbageNumbersRejected) {
  // atoi-style silent truncation ("0.9x" -> 0.9) must not parse.
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9x\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.errors[0].line, 3);
}

TEST(CampaignSpecParse, UnknownDesignListsAlternatives) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb9_9\n"
      "primaries = 10\n"
      "p = 0.9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errors[0].message.find("dtmb9_9"), std::string::npos);
  EXPECT_NE(result.errors[0].message.find("multiplexed"), std::string::npos);
}

TEST(CampaignSpecParse, UnsafeNamesRejected) {
  // Names become artifact paths (<out>/<name>.csv) and CSV cells; path
  // separators, '..' and commas must all be rejected at parse time.
  // ('#' needs no case here: it starts a comment, so "a#b" parses as "a".)
  for (const char* bad : {"../../etc", "a/b", "fig9, run2", ".hidden",
                          "-dash-first", ""}) {
    const ParseResult result = parse_campaign_spec(
        std::string("name = ") + bad +
        "\ndesign = dtmb2_6\nprimaries = 10\np = 0.9\n");
    EXPECT_FALSE(result.ok()) << "accepted name '" << bad << "'";
  }
  EXPECT_TRUE(parse_campaign_spec("name = fig9_v2.1-beta\n"
                                  "design = dtmb2_6\nprimaries = 10\n"
                                  "p = 0.9\n")
                  .ok());
}

TEST(CampaignSpecParse, DuplicateKeyIsDiagnosed) {
  const ParseResult result = parse_campaign_spec(
      "runs = 10\n"
      "runs = 20\n"
      "design = dtmb2_6\n"
      "primaries = 10\n"
      "p = 0.9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.errors[0].line, 2);
  EXPECT_NE(result.errors[0].message.find("duplicate"), std::string::npos);
}

TEST(CampaignSpecParse, InjectorGridMismatchDiagnosed) {
  // fixed_count injector but only a p grid given.
  const ParseResult result = parse_campaign_spec(
      "design = multiplexed\n"
      "injector = fixed_count\n"
      "p = 0.9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_text().find("'m'"), std::string::npos);
}

// ------------------------------------------------- parametric & mixture

constexpr std::string_view kTinyMixtureSpec =
    R"(name = tinymix
runs = 48
seed = 7
design = dtmb2_6
primaries = 30
injector = mixture
components = bernoulli, parametric, clustered
p = 0.95, 0.98
sigma_scale = 1.2
mean_spots = 0.5
cluster_radius = 1
core_kill = 0.9
edge_kill = 0.3
)";

TEST(CampaignSpecParse, ParametricInjectorParses) {
  const CampaignSpec spec = parse_or_die(
      "design = dtmb2_6\nprimaries = 20\n"
      "injector = parametric\nsigma_scale = 0.8, 1.0, 1.2\n");
  EXPECT_EQ(spec.injector, InjectorKind::kParametric);
  EXPECT_EQ(spec.sigma_scale_grid, (std::vector<double>{0.8, 1.0, 1.2}));
  EXPECT_EQ(spec.sweep_kind(), InjectorKind::kParametric);
  EXPECT_EQ(spec.param_count(), 3u);
}

TEST(CampaignSpecParse, ParametricNeedsSigmaScale) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\ninjector = parametric\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_text().find("sigma_scale"), std::string::npos);
}

TEST(CampaignSpecParse, MixtureSpecParsesAndIdentifiesTheSweep) {
  const CampaignSpec spec = parse_or_die(kTinyMixtureSpec);
  EXPECT_EQ(spec.injector, InjectorKind::kMixture);
  EXPECT_EQ(spec.mixture_components,
            (std::vector<InjectorKind>{InjectorKind::kBernoulli,
                                       InjectorKind::kParametric,
                                       InjectorKind::kClustered}));
  // The multi-valued grid ('p') is the swept dimension.
  EXPECT_EQ(spec.sweep_kind(), InjectorKind::kBernoulli);
  EXPECT_EQ(spec.param_count(), 2u);
}

TEST(CampaignSpecParse, MixtureNeedsComponents) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\ninjector = mixture\np = 0.9\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_text().find("components"), std::string::npos);
}

TEST(CampaignSpecParse, MixtureComponentGridsMustBePresent) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\ninjector = mixture\n"
      "components = bernoulli, parametric\n"
      "p = 0.9\n");  // sigma_scale missing
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_text().find("sigma_scale"), std::string::npos);
}

TEST(CampaignSpecParse, MixtureRejectsTwoSweptComponents) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\ninjector = mixture\n"
      "components = bernoulli, parametric\n"
      "p = 0.9, 0.95\n"
      "sigma_scale = 1.0, 1.2\n");
  ASSERT_FALSE(result.ok());
  const std::string text = result.error_text();
  EXPECT_NE(text.find("at most one"), std::string::npos);
  EXPECT_NE(text.find("'p'"), std::string::npos);
  EXPECT_NE(text.find("'sigma_scale'"), std::string::npos);
}

TEST(CampaignSpecParse, MixtureRejectsNestedAndDuplicateComponents) {
  const ParseResult nested = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\ninjector = mixture\n"
      "components = bernoulli, mixture\np = 0.9\n");
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.error_text().find("concrete"), std::string::npos);

  const ParseResult duplicate = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\ninjector = mixture\n"
      "components = bernoulli, bernoulli\np = 0.9\n");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.error_text().find("duplicate"), std::string::npos);
}

TEST(CampaignSpecParse, ComponentsRequireMixtureInjector) {
  const ParseResult result = parse_campaign_spec(
      "design = dtmb2_6\nprimaries = 20\n"
      "components = bernoulli\np = 0.9\n");
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].line, 3);  // the components line is named
  EXPECT_NE(result.errors[0].message.find("injector = mixture"),
            std::string::npos);
}

TEST(CampaignSpecParse, MixtureRoundTripsThroughSpecText) {
  const CampaignSpec original = parse_or_die(kTinyMixtureSpec);
  const CampaignSpec reparsed = parse_or_die(to_spec_text(original));
  EXPECT_EQ(original.mixture_components, reparsed.mixture_components);
  EXPECT_EQ(original.p_grid, reparsed.p_grid);
  EXPECT_EQ(original.sigma_scale_grid, reparsed.sigma_scale_grid);
  EXPECT_EQ(original.mean_spots_grid, reparsed.mean_spots_grid);
  EXPECT_EQ(original.cluster.radius, reparsed.cluster.radius);
  EXPECT_DOUBLE_EQ(original.cluster.core_kill, reparsed.cluster.core_kill);
  EXPECT_DOUBLE_EQ(original.cluster.edge_kill, reparsed.cluster.edge_kill);
}

TEST(CampaignSpecParse, MissingDesignDiagnosed) {
  const ParseResult result = parse_campaign_spec("p = 0.9\nprimaries = 5\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_text().find("design"), std::string::npos);
}

TEST(CampaignSpecParse, CommentsAndBlankLinesIgnored) {
  const CampaignSpec spec = parse_or_die(
      "# leading comment\n"
      "\n"
      "design = dtmb2_6   # trailing comment\n"
      "primaries = 10\n"
      "p = 0.9\n");
  EXPECT_EQ(spec.designs, (std::vector<Design>{Design::kDtmb2_6}));
}

TEST(CampaignSpecParse, DuplicateSinksAreDeduped) {
  const CampaignSpec spec = parse_or_die(
      "design = dtmb2_6\nprimaries = 10\np = 0.9\n"
      "sink = csv, console, csv, jsonl, console\n");
  EXPECT_EQ(spec.sinks, (std::vector<SinkKind>{SinkKind::kCsv,
                                               SinkKind::kConsole,
                                               SinkKind::kJsonl}));
}

TEST(CampaignSpecParse, SpecTextRoundTripsHighPrecisionDoubles) {
  const CampaignSpec original = parse_or_die(
      "design = dtmb2_6\nprimaries = 10\n"
      "p = 0.123456789, 0.1, 0.999999999999\n");
  const CampaignSpec reparsed = parse_or_die(to_spec_text(original));
  EXPECT_EQ(original.p_grid, reparsed.p_grid);
}

// ------------------------------------------------------------- expansion

TEST(CampaignGrid, Fig9ExpandsToFullCrossProduct) {
  const CampaignSpec spec = parse_or_die(builtin_campaign("fig9"));
  const auto points = expand_grid(spec);
  EXPECT_EQ(points.size(), 3u * 3u * 9u);
  // Canonical order: design slowest, then primaries, then p.
  EXPECT_EQ(points.front().design, Design::kDtmb2_6);
  EXPECT_EQ(points.front().min_primaries, 60);
  EXPECT_DOUBLE_EQ(points.front().param, 0.80);
  EXPECT_EQ(points.back().design, Design::kDtmb4_4);
  EXPECT_EQ(points.back().min_primaries, 240);
  EXPECT_DOUBLE_EQ(points.back().param, 0.99);
}

TEST(CampaignGrid, Fig13ExpandsPoolsDimension) {
  const CampaignSpec spec = parse_or_die(builtin_campaign("fig13"));
  EXPECT_EQ(expand_grid(spec).size(), 12u * 2u);
}

TEST(CampaignGrid, MultiplexedCollapsesPrimariesDimension) {
  const CampaignSpec spec = parse_or_die(
      "design = multiplexed, dtmb2_6\n"
      "primaries = 50, 100\n"
      "injector = fixed_count\n"
      "m = 0, 10\n");
  // multiplexed: 1 size x 2 m; dtmb2_6: 2 sizes x 2 m.
  EXPECT_EQ(expand_grid(spec).size(), 2u + 4u);
}

TEST(CampaignGrid, PointKeyDistinguishesEveryDimension) {
  const CampaignSpec spec = parse_or_die(builtin_campaign("fig13"));
  const auto points = expand_grid(spec);
  std::set<std::string> keys;
  for (const CampaignPoint& point : points) {
    keys.insert(identity_of(point, spec));
  }
  EXPECT_EQ(keys.size(), points.size());
}

// ---------------------------------------------------------------- running

TEST(CampaignRunner, DeduplicatesRepeatedPoints) {
  CampaignSpec spec = parse_or_die(
      "name = dup\n"
      "runs = 16\n"
      "design = dtmb2_6\n"
      "primaries = 20\n"
      "p = 0.9, 0.9, 0.95\n");
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(runner.stats().grid_points, 3u);
  EXPECT_EQ(runner.stats().unique_points, 2u);
  EXPECT_EQ(runner.stats().cache_hits(), 1u);
  // The deduped occurrences carry the same estimate.
  EXPECT_EQ(results[0].estimate.successes, results[1].estimate.successes);
}

TEST(CampaignRunner, MatchesDirectMonteCarloCall) {
  // A campaign point must reproduce exactly what the pre-campaign bench
  // mains computed: same engine, same options, same seed streams.
  CampaignSpec spec = parse_or_die(kTinySpec);
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 2u);

  const auto array = biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6, 30);
  sim::YieldQuery query;
  query.runs = 64;
  query.seed = 42;
  for (std::size_t i = 0; i < results.size(); ++i) {
    query.fault = sim::FaultModel::bernoulli(results[i].point.param);
    const auto direct = sim::Session(array).run(query);
    EXPECT_EQ(results[i].estimate.successes, direct.successes)
        << "p = " << results[i].point.param;
    EXPECT_EQ(results[i].primaries, array.primary_count());
    EXPECT_EQ(results[i].total_cells, array.cell_count());
  }
}

std::pair<std::string, std::string> run_tiny_artifacts(std::int32_t threads) {
  CampaignSpec spec = parse_or_die(kTinySpec);
  spec.threads = threads;
  CampaignRunner runner(std::move(spec));
  std::ostringstream csv_out;
  std::ostringstream jsonl_out;
  CsvSink csv(csv_out);
  JsonlSink jsonl(jsonl_out);
  runner.add_sink(csv);
  runner.add_sink(jsonl);
  runner.run();
  return {csv_out.str(), jsonl_out.str()};
}

TEST(CampaignRunner, ArtifactsBitIdenticalAcrossThreadCounts) {
  const auto serial = run_tiny_artifacts(1);
  const auto parallel = run_tiny_artifacts(4);
  EXPECT_EQ(serial.first, parallel.first);    // CSV
  EXPECT_EQ(serial.second, parallel.second);  // JSON-lines
  EXPECT_FALSE(serial.first.empty());
  EXPECT_FALSE(serial.second.empty());
}

TEST(CampaignRunner, EffectiveYieldColumnUsesMeasuredRR) {
  CampaignSpec spec = parse_or_die(kTinySpec);
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  for (const PointResult& result : results) {
    EXPECT_GT(result.redundancy_ratio, 0.0);
    EXPECT_NEAR(result.effective_yield,
                result.estimate.value / (1.0 + result.redundancy_ratio),
                1e-12);
  }
}

TEST(CampaignRunner, ClusteredInjectorSweepRuns) {
  CampaignSpec spec = parse_or_die(
      "runs = 32\n"
      "design = dtmb4_4\n"
      "primaries = 30\n"
      "injector = clustered\n"
      "mean_spots = 0.0, 2.0\n"
      "cluster_radius = 1\n"
      "core_kill = 0.9\n"
      "edge_kill = 0.3\n");
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 2u);
  // Zero expected spots -> no faults -> certain success; more spots hurt.
  EXPECT_DOUBLE_EQ(results[0].estimate.value, 1.0);
  EXPECT_LE(results[1].estimate.value, results[0].estimate.value);
  EXPECT_EQ(runner.header()[4], "mean_spots");
}

TEST(CampaignGrid, MixtureExpansionResolvesComponents) {
  const CampaignSpec spec = parse_or_die(kTinyMixtureSpec);
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 2u);  // one design x one size x two p values
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CampaignPoint& point = points[i];
    EXPECT_EQ(point.injector, InjectorKind::kMixture);
    EXPECT_EQ(point.sweep_kind, InjectorKind::kBernoulli);
    EXPECT_STREQ(point.param_name(), "p");
    ASSERT_EQ(point.components.size(), 3u);
    EXPECT_EQ(point.components[0],
              (MixtureComponent{InjectorKind::kBernoulli, point.param}));
    EXPECT_EQ(point.components[1],
              (MixtureComponent{InjectorKind::kParametric, 1.2}));
    EXPECT_EQ(point.components[2],
              (MixtureComponent{InjectorKind::kClustered, 0.5}));
  }
  EXPECT_DOUBLE_EQ(points[0].param, 0.95);
  EXPECT_DOUBLE_EQ(points[1].param, 0.98);
  // Keys separate the two points and survive component param changes.
  EXPECT_NE(identity_of(points[0], spec), identity_of(points[1], spec));
  CampaignPoint tweaked = points[0];
  tweaked.components[1].param = 1.3;
  EXPECT_NE(identity_of(tweaked, spec), identity_of(points[0], spec));
}

TEST(CampaignGrid, QueriesKeyAsTheNamedFactoriesWithTheSpecsClusterShape) {
  // A non-default cluster shape reaches the clustered kind only: every
  // other kind keys with the default ClusterShape, as the named factories
  // build it, so no store key moves.
  const CampaignSpec spec = parse_or_die(
      "runs = 48\n"
      "seed = 7\n"
      "design = dtmb2_6\n"
      "primaries = 30\n"
      "injector = mixture\n"
      "components = bernoulli, fixed_count, clustered, parametric\n"
      "p = 0.95, 0.98\n"
      "m = 3\n"
      "mean_spots = 0.5\n"
      "sigma_scale = 1.2\n"
      "cluster_radius = 2\n"
      "core_kill = 0.8\n"
      "edge_kill = 0.25\n");
  const sim::ClusterShape shape{2, 0.8, 0.25};
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 2u);
  for (const CampaignPoint& point : points) {
    sim::YieldQuery expected;
    expected.fault = sim::FaultModel::mixture(
        {sim::FaultModel::bernoulli(point.param),
         sim::FaultModel::fixed_count(3),
         sim::FaultModel::clustered(0.5, shape),
         sim::FaultModel::parametric(1.2)});
    expected.runs = 48;
    expected.seed = 7;
    EXPECT_EQ(sim::query_key(query_of(point, spec, 1)),
              sim::query_key(expected))
        << "p = " << point.param;
  }

  struct Case {
    InjectorKind kind;
    double param;
    sim::FaultModel named;
  };
  const Case cases[] = {
      {InjectorKind::kBernoulli, 0.9, sim::FaultModel::bernoulli(0.9)},
      {InjectorKind::kFixedCount, 4.0, sim::FaultModel::fixed_count(4)},
      {InjectorKind::kClustered, 0.5, sim::FaultModel::clustered(0.5, shape)},
      {InjectorKind::kParametric, 1.2, sim::FaultModel::parametric(1.2)},
  };
  for (const Case& c : cases) {
    CampaignPoint point = points.front();
    point.injector = c.kind;
    point.sweep_kind = c.kind;
    point.param = c.param;
    point.components.clear();
    sim::YieldQuery expected;
    expected.fault = c.named;
    expected.runs = 48;
    expected.seed = 7;
    EXPECT_EQ(sim::query_key(query_of(point, spec, 1)),
              sim::query_key(expected))
        << to_string(c.kind);
  }
}

TEST(CampaignRunner, MixtureCampaignMatchesDirectSessionQuery) {
  CampaignSpec spec = parse_or_die(kTinyMixtureSpec);
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 2u);

  sim::Session session(biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6, 30));
  for (const PointResult& result : results) {
    sim::YieldQuery query;
    query.fault = sim::FaultModel::mixture(
        {sim::FaultModel::bernoulli(result.point.param),
         sim::FaultModel::parametric(1.2),
         sim::FaultModel::clustered(0.5, {1, 0.9, 0.3})});
    query.runs = 48;
    query.seed = 7;
    const auto direct = session.run(query);
    EXPECT_EQ(result.estimate.successes, direct.successes)
        << "p = " << result.point.param;
  }
  EXPECT_EQ(runner.header()[4], "p");
}

TEST(CampaignRunner, MixtureArtifactsBitIdenticalAcrossThreadCounts) {
  const auto artifacts_at = [](std::int32_t threads) {
    CampaignSpec spec = parse_or_die(kTinyMixtureSpec);
    spec.threads = threads;
    CampaignRunner runner(std::move(spec));
    std::ostringstream csv_out;
    CsvSink csv(csv_out);
    runner.add_sink(csv);
    runner.run();
    return csv_out.str();
  };
  const std::string serial = artifacts_at(1);
  EXPECT_EQ(serial, artifacts_at(4));
  EXPECT_FALSE(serial.empty());
}

TEST(CampaignRunner, ParametricSweepDegradesWithSigma) {
  CampaignSpec spec = parse_or_die(
      "name = par\n"
      "runs = 64\n"
      "design = dtmb3_6\n"
      "primaries = 30\n"
      "injector = parametric\n"
      "sigma_scale = 0.5, 2.5\n");
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 2u);
  // Half-sigma process: ~7+ sigma tolerances, fault-free in 64 runs.
  EXPECT_DOUBLE_EQ(results[0].estimate.value, 1.0);
  // 2.5x sigma: parametric faults everywhere, yield collapses.
  EXPECT_LT(results[1].estimate.value, results[0].estimate.value);
  EXPECT_EQ(runner.header()[4], "sigma_scale");
}

TEST(CampaignRunner, FixedCountBeyondCellCountIsRejected) {
  CampaignSpec spec = parse_or_die(
      "runs = 8\n"
      "design = none\n"
      "primaries = 9\n"
      "injector = fixed_count\n"
      "m = 10\n");
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  EXPECT_THROW(runner.run(), ContractViolation);
}

TEST(CampaignRunner, NoneDesignHasZeroRedundancy) {
  CampaignSpec spec = parse_or_die(
      "runs = 32\n"
      "design = none\n"
      "primaries = 25\n"
      "p = 0.99\n");
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].primaries, 25);
  EXPECT_EQ(results[0].total_cells, 25);
  EXPECT_DOUBLE_EQ(results[0].redundancy_ratio, 0.0);
  EXPECT_DOUBLE_EQ(results[0].effective_yield, results[0].estimate.value);
}

TEST(CampaignRunner, AssayWorkloadRowsCarryTheOperationalColumns) {
  CampaignSpec spec = parse_or_die(
      "runs = 48\n"
      "design = multiplexed\n"
      "workload = assay\n"
      "injector = fixed_count\n"
      "m = 0, 25\n"
      "policy = used_faulty_primaries\n");
  spec.threads = 1;
  CampaignRunner runner(std::move(spec));
  const std::vector<std::string> header = runner.header();
  EXPECT_TRUE(std::find(header.begin(), header.end(), "op_yield") !=
              header.end());
  EXPECT_TRUE(std::find(header.begin(), header.end(), "mean_slowdown") !=
              header.end());
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 2u);
  for (const PointResult& result : results) {
    EXPECT_EQ(runner.format_row(result).size(), header.size());
    // Both legs ran over the same draws.
    EXPECT_EQ(result.operational.structural.runs,
              result.operational.operational.runs);
    EXPECT_EQ(result.estimate.successes,
              result.operational.structural.successes);
  }
  // m = 0: nothing fails, the assay completes at the baseline everywhere.
  EXPECT_DOUBLE_EQ(results[0].operational.operational.value, 1.0);
  EXPECT_DOUBLE_EQ(results[0].operational.mean_slowdown, 1.0);
  EXPECT_DOUBLE_EQ(results[0].operational.worst_slowdown, 1.0);
  // Operational (graceful-degradation) yield dominates structural yield on
  // this workload: an unrepairable chip can still run the assay slower.
  EXPECT_GE(results[1].operational.operational.value,
            results[1].estimate.value);
}

// ----------------------------------------------------------- spec files

TEST(CampaignFiles, CheckedInSpecsMatchBuiltins) {
  for (const std::string_view name : builtin_campaign_names()) {
    const std::string path = std::string(DMFB_SOURCE_DIR) + "/campaigns/" +
                             std::string(name) + ".campaign";
    std::ifstream file(path);
    ASSERT_TRUE(file.is_open()) << "missing " << path;
    std::ostringstream text;
    text << file.rdbuf();
    EXPECT_EQ(text.str(), builtin_campaign(name))
        << path << " has drifted from builtin_campaign(\"" << name << "\")";
  }
}

TEST(CampaignFiles, EveryCheckedInSpecIsABuiltin) {
  // The reverse direction: campaigns/ may not grow files the binary does
  // not carry (they would silently skip the sync test above), and every
  // file must parse on its own.
  const std::vector<std::string_view> names = builtin_campaign_names();
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(DMFB_SOURCE_DIR) + "/campaigns")) {
    if (entry.path().extension() != ".campaign") continue;
    ++files;
    const std::string stem = entry.path().stem().string();
    EXPECT_TRUE(std::find(names.begin(), names.end(), stem) != names.end())
        << entry.path() << " has no compiled-in builtin";
    std::ifstream file(entry.path());
    ASSERT_TRUE(file.is_open()) << entry.path();
    std::ostringstream text;
    text << file.rdbuf();
    const ParseResult parsed = parse_campaign_spec(text.str());
    EXPECT_TRUE(parsed.ok()) << entry.path() << ":\n" << parsed.error_text();
  }
  EXPECT_EQ(files, names.size());
}

// ------------------------------------------------------------ golden file

TEST(CampaignGolden, Fig9SmokeCsvMatchesGoldenFile) {
  CampaignSpec spec = parse_or_die(builtin_campaign("fig9_smoke"));
  CampaignRunner runner(std::move(spec));
  std::ostringstream csv_out;
  CsvSink csv(csv_out);
  runner.add_sink(csv);
  runner.run();

  const std::string path =
      std::string(DMFB_SOURCE_DIR) + "/tests/golden/fig9_smoke.csv";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << "missing " << path;
  std::ostringstream golden;
  golden << file.rdbuf();
  EXPECT_EQ(csv_out.str(), golden.str())
      << "campaign CSV drifted from " << path
      << " (regenerate with: dmfb_campaign builtin:fig9_smoke)";
}

TEST(CampaignGolden, Fig9SmokeV2CsvMatchesGoldenFileAtAnyThreadCount) {
  // The v2 contract's acceptance check in miniature: the counter-stream
  // grid must emit byte-identical CSV no matter how the runs are split
  // across threads, and that CSV is pinned by its own golden file.
  const auto run_at = [](std::int32_t threads) {
    CampaignSpec spec = parse_or_die(builtin_campaign("fig9_smoke_v2"));
    spec.threads = threads;
    CampaignRunner runner(std::move(spec));
    std::ostringstream csv_out;
    CsvSink csv(csv_out);
    runner.add_sink(csv);
    runner.run();
    return csv_out.str();
  };

  const std::string serial = run_at(1);
  EXPECT_EQ(serial, run_at(4)) << "v2 CSV differs between threads 1 and 4";

  const std::string path =
      std::string(DMFB_SOURCE_DIR) + "/tests/golden/fig9_smoke_v2.csv";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << "missing " << path;
  std::ostringstream golden;
  golden << file.rdbuf();
  EXPECT_EQ(serial, golden.str())
      << "campaign CSV drifted from " << path
      << " (regenerate with: dmfb_campaign builtin:fig9_smoke_v2)";
}

}  // namespace
}  // namespace dmfb::campaign

// Appended: strict --out argument parsing (dmfb_campaign CLI) and the
// session-backed runner's cache accounting.
namespace dmfb::campaign {
namespace {

TEST(OutArgument, PlainDirectoryPassesThrough) {
  std::string error;
  const auto out = parse_out_argument("artifacts/t1", error);
  ASSERT_TRUE(out.has_value()) << error;
  EXPECT_FALSE(out->format.has_value());
  EXPECT_EQ(out->dir, "artifacts/t1");
}

TEST(OutArgument, FormatPrefixSelectsFileSink) {
  std::string error;
  const auto csv = parse_out_argument("csv:results", error);
  ASSERT_TRUE(csv.has_value()) << error;
  EXPECT_EQ(csv->format, SinkKind::kCsv);
  EXPECT_EQ(csv->dir, "results");

  const auto jsonl = parse_out_argument("jsonl:/tmp/a", error);
  ASSERT_TRUE(jsonl.has_value()) << error;
  EXPECT_EQ(jsonl->format, SinkKind::kJsonl);
  EXPECT_EQ(jsonl->dir, "/tmp/a");
}

TEST(OutArgument, UnknownFormatIsAnErrorNamingTheSupportedOnes) {
  std::string error;
  EXPECT_FALSE(parse_out_argument("yaml:results", error).has_value());
  EXPECT_NE(error.find("yaml"), std::string::npos);
  EXPECT_NE(error.find("csv"), std::string::npos);
  EXPECT_NE(error.find("jsonl"), std::string::npos);
}

TEST(OutArgument, ConsoleIsNotAFileSinkFormat) {
  std::string error;
  EXPECT_FALSE(parse_out_argument("console:results", error).has_value());
  EXPECT_FALSE(parse_out_argument("markdown:results", error).has_value());
}

TEST(OutArgument, RejectsEmptyPieces) {
  std::string error;
  EXPECT_FALSE(parse_out_argument("", error).has_value());
  EXPECT_FALSE(parse_out_argument("csv:", error).has_value());
  EXPECT_FALSE(parse_out_argument(":dir", error).has_value());
}

TEST(OutArgument, PathPrefixEscapesFormatDetection) {
  // The documented escape hatch: a path character before the ':' makes the
  // whole argument a directory.
  std::string error;
  const auto odd = parse_out_argument("./odd:dir", error);
  ASSERT_TRUE(odd.has_value()) << error;
  EXPECT_FALSE(odd->format.has_value());
  EXPECT_EQ(odd->dir, "./odd:dir");

  const auto nested = parse_out_argument("results/csv:run1", error);
  ASSERT_TRUE(nested.has_value()) << error;
  EXPECT_FALSE(nested->format.has_value());
  EXPECT_EQ(nested->dir, "results/csv:run1");
}

TEST(CampaignRunner, SessionCacheBacksTheDedupeStats) {
  // One p value listed twice, across two pools and two policies that share
  // one design: 8 grid points, 4 distinct computations.
  CampaignSpec spec = parse_or_die(
      "name = cachestats\n"
      "runs = 16\n"
      "design = dtmb2_6\n"
      "primaries = 20\n"
      "p = 0.9, 0.9\n"
      "pool = spares_only, spares_and_unused_primaries\n"
      "policy = all_faulty_primaries, used_faulty_primaries\n");
  spec.threads = 2;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  EXPECT_EQ(results.size(), 8u);
  EXPECT_EQ(runner.stats().grid_points, 8u);
  EXPECT_EQ(runner.stats().unique_points, 4u);
  EXPECT_EQ(runner.stats().cache_hits(), 4u);
}

/// An in-memory ResultCache standing in for a `--store` directory.
class MapCache final : public sim::ResultCache {
 public:
  std::optional<std::string> load(const std::string& key) override {
    const std::scoped_lock lock(mutex_);
    const auto found = records_.find(key);
    if (found == records_.end()) return std::nullopt;
    return found->second;
  }
  void store(const std::string& key, const std::string& payload) override {
    const std::scoped_lock lock(mutex_);
    records_[key] = payload;
  }
  std::size_t size() {
    const std::scoped_lock lock(mutex_);
    return records_.size();
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::string> records_;
};

/// Four sessions of three p values each: four sweeps at run time.
constexpr std::string_view kSweepSpec =
    R"(name = sweeps
runs = 96
seed = 7
design = dtmb2_6, dtmb3_6
primaries = 20, 30
injector = bernoulli
p = 0.80, 0.90, 0.95
)";

/// The CSV of `spec_text` at `threads`, over `cache` when it is set.
std::string sweep_csv(std::string_view spec_text, std::int32_t threads,
                      const std::shared_ptr<sim::ResultCache>& cache,
                      RunnerStats* stats) {
  CampaignSpec spec = parse_or_die(spec_text);
  spec.threads = threads;
  CampaignRunner runner(std::move(spec));
  if (cache) runner.set_result_cache(cache);
  std::ostringstream csv_out;
  CsvSink csv(csv_out);
  runner.add_sink(csv);
  runner.run();
  if (stats != nullptr) *stats = runner.stats();
  return csv_out.str();
}

TEST(CampaignRunner, PartlyStoredSweepsComputeOnlyTheMissingPoints) {
  const std::string cold = sweep_csv(kSweepSpec, 1, nullptr, nullptr);
  for (const std::int32_t threads : {1, 4}) {
    // An earlier, interrupted campaign stored p = 0.90 of every session.
    auto cache = std::make_shared<MapCache>();
    std::string partial(kSweepSpec);
    partial.replace(partial.find("0.80, 0.90, 0.95"), 16, "0.90");
    RunnerStats stats;
    (void)sweep_csv(partial, threads, cache, &stats);
    ASSERT_EQ(stats.unique_points, 4u);
    ASSERT_EQ(cache->size(), 4u);

    EXPECT_EQ(sweep_csv(kSweepSpec, threads, cache, &stats), cold)
        << "threads=" << threads;
    EXPECT_EQ(stats.grid_points, 12u);
    EXPECT_EQ(stats.unique_points, 8u);
    EXPECT_EQ(stats.store_hits, 4u);
    EXPECT_EQ(cache->size(), 12u);
  }
}

TEST(CampaignRunner, SweepJobsMatchDirectSessionQueries) {
  // Each session's three points run as one Session::run_sweep job; every
  // row must still equal its own one-query run.
  CampaignSpec spec = parse_or_die(kSweepSpec);
  spec.threads = 2;
  CampaignRunner runner(std::move(spec));
  const auto results = runner.run();
  ASSERT_EQ(results.size(), 12u);
  for (const PointResult& result : results) {
    sim::YieldQuery query;
    query.fault = sim::FaultModel::bernoulli(result.point.param);
    query.runs = 96;
    query.seed = 7;
    sim::Session session(build_design_array(result.point.design,
                                            result.point.min_primaries));
    EXPECT_EQ(result.estimate.successes, session.run(query).successes)
        << to_string(result.point.design)
        << " n=" << result.point.min_primaries << " p=" << result.point.param;
  }
}

}  // namespace
}  // namespace dmfb::campaign
