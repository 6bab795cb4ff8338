// Equivalence suite for the composable fault models (parametric + mixture).
//
// The load-bearing pin: sim::FaultModel::{kParametric, kMixture} must
// reproduce the legacy HexArray engine (yield::mc_yield with
// fault::ParametricInjector / fault::MixtureInjector callbacks)
// success-for-success, for every (policy x engine x pool) combination, at
// threads 1 and 4 — the same contract the original suite pins for the
// bernoulli / fixed-count / clustered kinds. Plus the mixture semantics:
// standalone draw replay, first-faulter-wins attribution, composition
// identities, and query-key/cache behaviour. And the draw-contract pin:
// per-(kind, contract) FNV-1a digests of fault sets, attributions and the
// stream position after injection, on every injection path.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"
#include "yield/monte_carlo.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;
using graph::MatchingEngine;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

biochip::HexArray make_test_array() {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
  // Mark a quarter of the primaries assay-used so the used-faulty coverage
  // policy and the spares-and-unused-primaries pool both have real work.
  std::int32_t marked = 0;
  for (const auto primary : array.primaries()) {
    if (marked >= array.primary_count() / 4) break;
    array.set_usage(primary, biochip::CellUsage::kAssayUsed);
    ++marked;
  }
  return array;
}

// sigma_scale large enough that parametric faults actually stress the
// repair machinery (typical() tolerances sit between 3.3 and 4 sigma).
constexpr double kSigmaScale = 1.4;

/// The mixture both paths must agree on: catastrophic Bernoulli spots, then
/// parametric deviations, then a clustered contamination pass.
FaultModel test_mixture() {
  return FaultModel::mixture(
      {FaultModel::bernoulli(0.97), FaultModel::parametric(kSigmaScale),
       FaultModel::clustered(1.0, {1, 0.9, 0.3})});
}

fault::MixtureInjector legacy_test_mixture() {
  return fault::MixtureInjector(
      {fault::BernoulliInjector(0.97),
       fault::ParametricInjector(
           fault::ProcessSpec::typical().scaled(kSigmaScale)),
       fault::ClusteredInjector(1.0, 1, 0.9, 0.3)});
}

yield::YieldEstimate legacy_reference(biochip::HexArray& array,
                                      const FaultModel& model,
                                      const yield::McOptions& options) {
  switch (model.kind) {
    case FaultModel::Kind::kParametric: {
      const fault::ParametricInjector injector(
          fault::ProcessSpec::typical().scaled(model.param));
      return yield::mc_yield(
          array,
          [&](biochip::HexArray& a, Rng& rng) { injector.inject(a, rng); },
          options);
    }
    case FaultModel::Kind::kMixture: {
      const fault::MixtureInjector injector = legacy_test_mixture();
      return yield::mc_yield(
          array,
          [&](biochip::HexArray& a, Rng& rng) { injector.inject(a, rng); },
          options);
    }
    default:
      throw ContractViolation("not a composable-model kind");
  }
}

// --------------------------------------------------------- equivalence pin

TEST(SimFaultModelEquivalence, ParametricAndMixtureMatchLegacyEverywhere) {
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  // One session per thread count: `threads` is not part of the query cache
  // key, so a shared session would serve the threads=4 leg from the serial
  // run's cache entry instead of exercising the parallel path.
  Session serial_session(design);
  Session parallel_session(design);
  for (const FaultModel& model :
       {FaultModel::parametric(kSigmaScale), test_mixture()}) {
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const MatchingEngine engine :
           {MatchingEngine::kHopcroftKarp, MatchingEngine::kKuhn,
            MatchingEngine::kDinic}) {
        for (const ReplacementPool pool :
             {ReplacementPool::kSparesOnly,
              ReplacementPool::kSparesAndUnusedPrimaries}) {
          for (const std::int32_t threads : {1, 4}) {
            yield::McOptions options;
            options.runs = 300;
            options.seed = 0xFACADE;
            options.threads = threads;
            options.policy = policy;
            options.engine = engine;
            options.pool = pool;
            const auto legacy = legacy_reference(array, model, options);
            Session& session =
                threads == 1 ? serial_session : parallel_session;
            const auto ported = session.run(yield::to_query(options, model));
            EXPECT_EQ(ported.successes, legacy.successes)
                << "model=" << static_cast<int>(model.kind)
                << " policy=" << static_cast<int>(policy)
                << " engine=" << static_cast<int>(engine)
                << " pool=" << static_cast<int>(pool)
                << " threads=" << threads;
            EXPECT_DOUBLE_EQ(ported.value, legacy.value);
            EXPECT_DOUBLE_EQ(ported.ci95.lo, legacy.ci95.lo);
            EXPECT_DOUBLE_EQ(ported.ci95.hi, legacy.ci95.hi);
          }
        }
      }
    }
  }
}

TEST(SimFaultModelEquivalence, ParametricBitmapMatchesLegacyPerCell) {
  // Not just the success counts: the injected fault *sets* must agree,
  // draw-for-draw, on a shared Rng trajectory.
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  FaultState state(design);
  const fault::ParametricInjector injector(
      fault::ProcessSpec::typical().scaled(kSigmaScale));
  Rng rng(271828);
  for (std::int32_t trial = 0; trial < 200; ++trial) {
    Rng sim_rng = rng;  // same stream for both injections
    injector.inject(array, rng);
    inject(FaultModel::parametric(kSigmaScale), state, sim_rng);
    for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
      ASSERT_EQ(state.is_faulty(cell),
                array.health(cell) == biochip::CellHealth::kFaulty)
          << "trial=" << trial << " cell=" << cell;
    }
    array.reset_health();
    state.reset();
  }
}

// ----------------------------------------------------- mixture semantics

TEST(SimFaultModelMixture, SingleComponentMixtureEqualsBareModel) {
  // Composition identity: mixture({X}) replays X exactly.
  Session session(make_test_array());
  for (const FaultModel& component :
       {FaultModel::bernoulli(0.95), FaultModel::fixed_count(7),
        FaultModel::clustered(1.2, {1, 0.9, 0.3}),
        FaultModel::parametric(kSigmaScale)}) {
    YieldQuery bare;
    bare.fault = component;
    bare.runs = 400;
    const auto direct = session.run(bare);
    YieldQuery wrapped = bare;
    wrapped.fault = FaultModel::mixture({component});
    const auto mixed = session.run(wrapped);
    EXPECT_EQ(mixed.successes, direct.successes)
        << "kind=" << static_cast<int>(component.kind);
  }
}

TEST(SimFaultModelMixture, FirstFaulterWinsAttribution) {
  // A mixture of two certain-kill components: every cell ends up faulty
  // exactly once, attributed to the first pass.
  auto array = make_test_array();
  const fault::MixtureInjector injector(
      {fault::BernoulliInjector(0.0), fault::BernoulliInjector(0.0)});
  Rng rng(99);
  const fault::FaultMap map = injector.inject(array, rng);
  EXPECT_EQ(static_cast<std::int32_t>(map.size()), array.cell_count());
  std::set<hex::CellIndex> cells;
  for (const auto& record : map.records) cells.insert(record.cell);
  EXPECT_EQ(static_cast<std::int32_t>(cells.size()), array.cell_count());
}

TEST(SimFaultModelMixture, MixtureFaultsAtLeastUnionOfSeverestComponent) {
  // With bernoulli(p) ⊕ parametric, the mixture's expected fault count is
  // at least each component's own (absorption only merges overlaps).
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  FaultState state(design);
  Rng rng(7);
  std::int64_t bernoulli_only = 0;
  std::int64_t mixed = 0;
  for (std::int32_t trial = 0; trial < 300; ++trial) {
    Rng mix_rng = rng;
    inject(FaultModel::bernoulli(0.9), state, rng);
    bernoulli_only += state.faulty_count();
    state.reset();
    inject(FaultModel::mixture({FaultModel::bernoulli(0.9),
                                FaultModel::parametric(kSigmaScale)}),
           state, mix_rng);
    mixed += state.faulty_count();
    state.reset();
  }
  EXPECT_GT(mixed, bernoulli_only);
}

// ------------------------------------------------------ draw-contract pin

// Every (kind, draw contract) pair is pinned to constants recorded before
// the injection layers shared code, so a change to any draw sequence shows
// up here even when fault:: and sim:: still agree with each other. This is
// a contract pin: a mismatch means a draw order changed, not that the
// constants need regenerating.

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_fold(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xffU;
    digest *= kFnvPrime;
  }
}

constexpr int kPinSeeds = 64;

std::uint64_t pin_seed(int k) { return static_cast<std::uint64_t>(k) * 977 + 5; }

/// One pinned model on both layers: the sim::FaultModel and a factory for
/// the equivalent fault:: mixture component (nullptr for the mixture).
struct PinnedModel {
  std::string name;
  FaultModel model;
  std::function<fault::MixtureInjector::Component()> component;
};

std::vector<PinnedModel> pinned_models() {
  return {
      {"bernoulli", FaultModel::bernoulli(0.92),
       [] { return fault::BernoulliInjector(0.92); }},
      {"fixed_count", FaultModel::fixed_count(7),
       [] { return fault::FixedCountInjector(7); }},
      {"clustered", FaultModel::clustered(2.0, {1, 0.9, 0.3}),
       [] { return fault::ClusteredInjector(2.0, 1, 0.9, 0.3); }},
      {"parametric", FaultModel::parametric(kSigmaScale),
       [] {
         return fault::ParametricInjector(
             fault::ProcessSpec::typical().scaled(kSigmaScale));
       }},
      {"mixture",
       FaultModel::mixture({FaultModel::bernoulli(0.92),
                            FaultModel::fixed_count(7),
                            FaultModel::clustered(2.0, {1, 0.9, 0.3}),
                            FaultModel::parametric(kSigmaScale)}),
       nullptr},
  };
}

fault::MixtureInjector pinned_mixture() {
  return fault::MixtureInjector(
      {fault::BernoulliInjector(0.92), fault::FixedCountInjector(7),
       fault::ClusteredInjector(2.0, 1, 0.9, 0.3),
       fault::ParametricInjector(
           fault::ProcessSpec::typical().scaled(kSigmaScale))});
}

void fold_array(std::uint64_t& digest, const biochip::HexArray& array,
                const fault::FaultMap& map) {
  for (std::int32_t cell = 0; cell < array.cell_count(); ++cell) {
    if (array.health(cell) == biochip::CellHealth::kFaulty) {
      fnv_fold(digest, static_cast<std::uint64_t>(cell));
    }
  }
  for (const fault::FaultRecord& record : map.records) {
    fnv_fold(digest, static_cast<std::uint64_t>(record.cell));
    fnv_fold(digest, static_cast<std::uint64_t>(record.fault_class));
    if (record.catastrophic) {
      fnv_fold(digest, static_cast<std::uint64_t>(*record.catastrophic));
    }
    if (record.parametric) {
      fnv_fold(digest, static_cast<std::uint64_t>(*record.parametric));
      fnv_fold(digest, std::bit_cast<std::uint64_t>(record.deviation));
    }
  }
}

void fold_state(std::uint64_t& digest, const FaultState& state) {
  std::vector<CellIndex> cells(state.faulty_cells().begin(),
                               state.faulty_cells().end());
  std::sort(cells.begin(), cells.end());
  for (const CellIndex cell : cells) {
    fnv_fold(digest, static_cast<std::uint64_t>(cell));
  }
}

/// Digest of a fault:: path over the pinned seeds. `inject_v1` / `inject_v2`
/// run one injection on a healthy array; the stream position after it (next
/// raw draw under v1, cursor under v2) is folded after the faults.
template <typename InjectV1, typename InjectV2>
std::uint64_t fault_digest(RngVersion version, const InjectV1& inject_v1,
                           const InjectV2& inject_v2) {
  auto array = biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60);
  std::uint64_t digest = kFnvOffset;
  for (int k = 0; k < kPinSeeds; ++k) {
    array.reset_health();
    if (version == RngVersion::kV1) {
      Rng rng(pin_seed(k));
      fold_array(digest, array, inject_v1(array, rng));
      fnv_fold(digest, rng());
    } else {
      CounterStream stream(pin_seed(k));
      fold_array(digest, array, inject_v2(array, stream));
      fnv_fold(digest, stream.cursor());
    }
  }
  return digest;
}

std::uint64_t sim_digest(RngVersion version, const FaultModel& model) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
  FaultState state(design);
  std::uint64_t digest = kFnvOffset;
  for (int k = 0; k < kPinSeeds; ++k) {
    state.reset();
    if (version == RngVersion::kV1) {
      Rng rng(pin_seed(k));
      inject(model, state, rng);
      fold_state(digest, state);
      fnv_fold(digest, rng());
    } else {
      CounterStream stream(pin_seed(k));
      inject_v2(model, state, stream);
      fold_state(digest, state);
      fnv_fold(digest, stream.cursor());
    }
  }
  return digest;
}

struct PinnedDigests {
  const char* model;
  RngVersion version;
  std::uint64_t fault_layer;  ///< cells + records + stream position
  std::uint64_t sim_layer;    ///< cells + stream position
};

// Recorded from the per-layer injectors before they shared one core.
constexpr PinnedDigests kPinnedDigests[] = {
    {"bernoulli", RngVersion::kV1, 0xd247b5f581e1b8ddULL,
     0x48a98a0b85410d8eULL},
    {"bernoulli", RngVersion::kV2, 0xb201706915b8202fULL,
     0x346ca1d2d7be6393ULL},
    {"fixed_count", RngVersion::kV1, 0xb305c1297dd31a9fULL,
     0xef00c3d70476f6f1ULL},
    {"fixed_count", RngVersion::kV2, 0x0f3c4f315d063825ULL,
     0x51665d1b0fd0c218ULL},
    {"clustered", RngVersion::kV1, 0x6064173d0c42179eULL,
     0xfa6f7e96468d88a2ULL},
    {"clustered", RngVersion::kV2, 0x6442eeb5aa92b3c0ULL,
     0x4b94992de5faff5bULL},
    {"parametric", RngVersion::kV1, 0xedddf380d0021adcULL,
     0xb57108c1df567f19ULL},
    {"parametric", RngVersion::kV2, 0xbd7faccc747424d9ULL,
     0xb2bc76f3e89c1232ULL},
    {"mixture", RngVersion::kV1, 0xa99a472151dc887aULL,
     0xdc70a18d4df41e4bULL},
    {"mixture", RngVersion::kV2, 0x39cd946778ee11ceULL,
     0x18202344e9b1bb36ULL},
};

const PinnedDigests& pinned(const std::string& model, RngVersion version) {
  for (const PinnedDigests& entry : kPinnedDigests) {
    if (entry.model == model && entry.version == version) return entry;
  }
  throw ContractViolation("no pinned digest for " + model);
}

TEST(SimFaultModelDrawContract, EveryPathMatchesThePinnedDigests) {
  for (const PinnedModel& pinned_model : pinned_models()) {
    for (const RngVersion version : {RngVersion::kV1, RngVersion::kV2}) {
      const PinnedDigests& expected = pinned(pinned_model.name, version);
      const auto label = [&](const char* path) {
        return pinned_model.name + " v" +
               std::to_string(static_cast<int>(version)) + " " + path;
      };
      const auto hex = [](std::uint64_t value) {
        std::ostringstream out;
        out << "0x" << std::hex << value;
        return out.str();
      };

      // fault:: standalone (the mixture's standalone is MixtureInjector).
      const fault::MixtureInjector standalone_mixture = pinned_mixture();
      const std::uint64_t standalone = fault_digest(
          version,
          [&](biochip::HexArray& array, Rng& rng) {
            if (!pinned_model.component) {
              return standalone_mixture.inject(array, rng);
            }
            return std::visit(
                [&](const auto& injector) { return injector.inject(array, rng); },
                pinned_model.component());
          },
          [&](biochip::HexArray& array, CounterStream& stream) {
            if (!pinned_model.component) {
              return standalone_mixture.inject_v2(array, stream);
            }
            return std::visit(
                [&](const auto& injector) {
                  return injector.inject_v2(array, stream);
                },
                pinned_model.component());
          });
      EXPECT_EQ(hex(standalone), hex(expected.fault_layer))
          << label("fault:: standalone");

      // One-component MixtureInjector (the mixture has no such wrapping).
      if (pinned_model.component) {
        const fault::MixtureInjector wrapped({pinned_model.component()});
        const std::uint64_t one_component = fault_digest(
            version,
            [&](biochip::HexArray& array, Rng& rng) {
              return wrapped.inject(array, rng);
            },
            [&](biochip::HexArray& array, CounterStream& stream) {
              return wrapped.inject_v2(array, stream);
            });
        EXPECT_EQ(hex(one_component), hex(expected.fault_layer))
            << label("fault::MixtureInjector({X})");
      }

      EXPECT_EQ(hex(sim_digest(version, pinned_model.model)),
                hex(expected.sim_layer))
          << label("sim::inject");
    }
  }
}

// ------------------------------------------------------------- validation

TEST(SimFaultModelValidate, RejectsBadParametricAndMixtures) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  YieldQuery query;
  query.runs = 10;
  query.fault = FaultModel::parametric(0.0);
  EXPECT_THROW(session.run(query), ContractViolation);
  query.fault = FaultModel::parametric(-1.0);
  EXPECT_THROW(session.run(query), ContractViolation);
  query.fault = FaultModel::mixture({});
  EXPECT_THROW(session.run(query), ContractViolation);
  // Nested mixtures are rejected.
  query.fault = FaultModel::mixture(
      {FaultModel::mixture({FaultModel::bernoulli(0.9)})});
  EXPECT_THROW(session.run(query), ContractViolation);
  // A bad component is caught through the mixture.
  query.fault = FaultModel::mixture({FaultModel::bernoulli(1.5)});
  EXPECT_THROW(session.run(query), ContractViolation);
  // And the happy path still runs.
  query.fault = FaultModel::mixture(
      {FaultModel::bernoulli(0.95), FaultModel::parametric(1.0)});
  EXPECT_NO_THROW(session.run(query));
}

TEST(SimFaultModelValidate, RangeChecksFixedCountBeforeNarrowing) {
  // Out-of-int32 params must fail the contract, not reach a narrowing cast.
  const auto design =
      ChipDesign::make(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  FaultModel model = FaultModel::fixed_count(0);
  for (const double param :
       {1e20, -1e20, 2147483648.0, 2.5, -1.0, std::nan("")}) {
    model.param = param;
    EXPECT_THROW(validate(model, *design), ContractViolation) << param;
  }
  model.param = design->cell_count();
  EXPECT_NO_THROW(validate(model, *design));
  model.param = design->cell_count() + 1;
  EXPECT_THROW(validate(model, *design), ContractViolation);
}

TEST(SimFaultModelValidate, CapsClusteredMeanSpotsAndRadius) {
  // Past kMaxMeanSpots the Poisson spot count overflows int32 (3e9) or the
  // exponent folding stops making progress (1e308); a huge radius makes the
  // spot disk exhaust memory. Both caps are inclusive.
  const auto design =
      ChipDesign::make(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6));
  const ClusterShape shape{1, 0.9, 0.3};
  EXPECT_NO_THROW(
      validate(FaultModel::clustered(kMaxMeanSpots, shape), *design));
  for (const double mean_spots :
       {std::nextafter(kMaxMeanSpots, 2.0 * kMaxMeanSpots), 3e9, 1e308,
        std::numeric_limits<double>::infinity(), std::nan("")}) {
    EXPECT_THROW(validate(FaultModel::clustered(mean_spots, shape), *design),
                 ContractViolation)
        << mean_spots;
  }
  ClusterShape wide = shape;
  wide.radius = kMaxClusterRadius;
  EXPECT_NO_THROW(validate(FaultModel::clustered(2.0, wide), *design));
  for (const std::int32_t radius : {kMaxClusterRadius + 1, 100000}) {
    wide.radius = radius;
    EXPECT_THROW(validate(FaultModel::clustered(2.0, wide), *design),
                 ContractViolation)
        << radius;
  }
  // The sampler itself refuses the over-range means on either stream.
  Rng rng(1);
  CounterStream stream(1);
  EXPECT_THROW(fault::sample_poisson(3e9, rng), ContractViolation);
  EXPECT_THROW(fault::sample_poisson(1e308, stream), ContractViolation);
}

// ------------------------------------------------------------- query keys

TEST(SimFaultModelKeys, MixtureKeysDistinguishCompositionAndOrder) {
  YieldQuery query;
  query.fault = test_mixture();
  const std::string key = query_key(query);

  YieldQuery other = query;
  other.fault = FaultModel::mixture(
      {FaultModel::parametric(kSigmaScale), FaultModel::bernoulli(0.97),
       FaultModel::clustered(1.0, {1, 0.9, 0.3})});  // reordered
  EXPECT_NE(query_key(other), key);

  other.fault = FaultModel::mixture(
      {FaultModel::bernoulli(0.97), FaultModel::parametric(kSigmaScale)});
  EXPECT_NE(query_key(other), key);

  other.fault = FaultModel::parametric(kSigmaScale);
  const std::string parametric_key = query_key(other);
  EXPECT_NE(parametric_key, key);
  other.fault = FaultModel::mixture({FaultModel::parametric(kSigmaScale)});
  EXPECT_NE(query_key(other), parametric_key);  // wrapped != bare

  other.fault = test_mixture();
  EXPECT_EQ(query_key(other), key);  // deterministic serialisation
}

TEST(SimFaultModelKeys, MixtureQueriesShareTheSessionCache) {
  Session session(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 8, 8));
  YieldQuery query;
  query.fault = test_mixture();
  query.runs = 200;
  const auto first = session.run(query);
  const auto second = session.run(query);
  EXPECT_EQ(first.successes, second.successes);
  EXPECT_EQ(session.stats().queries, 2u);
  EXPECT_EQ(session.stats().computed, 1u);
}

}  // namespace
}  // namespace dmfb::sim
