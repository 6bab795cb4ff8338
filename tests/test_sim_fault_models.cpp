// Equivalence suite for the composable fault models (parametric + mixture).
//
// The load-bearing pin: sim::FaultModel::{kParametric, kMixture} must
// reproduce the legacy HexArray engine (yield::mc_yield with
// fault::ParametricInjector / fault::MixtureInjector callbacks)
// success-for-success, for every (policy x engine x pool) combination, at
// threads 1 and 4 — the same contract the original suite pins for the
// bernoulli / fixed-count / clustered kinds. Plus the mixture semantics:
// standalone draw replay, first-faulter-wins attribution, composition
// identities, and query-key/cache behaviour.
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"
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
