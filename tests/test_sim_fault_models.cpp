// Equivalence suite for the composable fault models (parametric + mixture).
//
// The load-bearing pin: sim::FaultModel::{kParametric, kMixture} must
// reproduce the serial certified loop (tests/repair_witness.hpp: scalar
// sim::inject into one FaultState, every verdict's witness checked)
// success-for-success, for every (policy x pool) combination, at
// threads 1 and 4 — the same contract the original suite pins for the
// bernoulli / fixed-count / clustered kinds. Plus the mixture semantics:
// standalone draw replay, first-faulter-wins attribution, composition
// identities, and query-key/cache behaviour. And the draw-contract pin:
// per-(kind, contract) FNV-1a digests of fault sets, attributions and the
// stream position after injection, on both sinks.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/contracts.hpp"
#include "repair_witness.hpp"
#include "sim/fault_model.hpp"
#include "sim/lockstep_bernoulli.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

biochip::HexArray make_test_array() {
  return with_used_quarter(biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9));
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

// --------------------------------------------------------- equivalence pin

TEST(SimFaultModelEquivalence,
     ParametricAndMixtureMatchCertifiedLoopEverywhere) {
  expect_sessions_match_certified_loop(
      ChipDesign::make(make_test_array()),
      {FaultModel::parametric(kSigmaScale), test_mixture()});
}

TEST(SimFaultModelEquivalence, ParametricBitmapMatchesLegacyPerCell) {
  // Not just the success counts: the injected fault *sets* must agree,
  // draw-for-draw, on a shared Rng trajectory.
  auto array = make_test_array();
  const auto design = ChipDesign::make(array);
  FaultState state(design);
  const FaultModel model = FaultModel::parametric(kSigmaScale);
  Rng rng(271828);
  for (std::int32_t trial = 0; trial < 200; ++trial) {
    Rng sim_rng = rng;  // same stream for both injections
    inject(model, array, rng);
    inject(model, state, sim_rng);
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
  Rng rng(99);
  const FaultModel certain_kill = FaultModel::bernoulli(0.0);
  const fault::FaultMap map =
      inject(FaultModel::mixture({certain_kill, certain_kill}), array, rng);
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
// up here even when the two sinks still agree with each other. This is
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

struct PinnedModel {
  std::string name;
  FaultModel model;
};

std::vector<PinnedModel> pinned_models() {
  return {
      {"bernoulli", FaultModel::bernoulli(0.92)},
      {"fixed_count", FaultModel::fixed_count(7)},
      {"clustered", FaultModel::clustered(2.0, {1, 0.9, 0.3})},
      {"parametric", FaultModel::parametric(kSigmaScale)},
      {"mixture",
       FaultModel::mixture({FaultModel::bernoulli(0.92),
                            FaultModel::fixed_count(7),
                            FaultModel::clustered(2.0, {1, 0.9, 0.3}),
                            FaultModel::parametric(kSigmaScale)})},
  };
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
  for (const CellIndex cell : state.faulty_cells()) {  // ascending
    fnv_fold(digest, static_cast<std::uint64_t>(cell));
  }
}

/// Digest of the record path (sim::inject on a HexArray) over the pinned
/// seeds; the stream position after each injection (next raw draw under
/// v1, cursor under v2) is folded after the faults.
std::uint64_t record_digest(RngVersion version, const FaultModel& model) {
  auto array = biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60);
  std::uint64_t digest = kFnvOffset;
  for (int k = 0; k < kPinSeeds; ++k) {
    array.reset_health();
    if (version == RngVersion::kV1) {
      Rng rng(pin_seed(k));
      fold_array(digest, array, inject(model, array, rng));
      fnv_fold(digest, rng());
    } else {
      CounterStream stream(pin_seed(k));
      fold_array(digest, array, inject_v2(model, array, stream));
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

/// sim_digest's v1 digest through the lock-step Bernoulli path: the pinned
/// seeds go `kernel.lanes` at a time into the lanes, and each lane's fault
/// cells and final stream position fold in seed order.
std::uint64_t lockstep_digest(const LockstepKernel& kernel,
                              const FaultModel& model) {
  const auto design = ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(DtmbKind::kDtmb2_6, 60));
  FaultState state(design);
  const double q = 1.0 - model.param;
  LockstepBernoulli batch(kernel, design->cell_count(), {&q, 1});
  std::uint64_t digest = kFnvOffset;
  for (int first = 0; first < kPinSeeds; first += kernel.lanes) {
    for (std::int32_t lane = 0; lane < kernel.lanes; ++lane) {
      batch.load(lane, Rng(pin_seed(first + lane)));
    }
    batch.draw();
    for (std::int32_t lane = 0; lane < kernel.lanes; ++lane) {
      state.reset();
      // The stream a lane leaves is the pinned seed's, `consumed` draws on.
      const std::int32_t consumed = batch.inject(0, lane, state);
      Rng rng(pin_seed(first + lane));
      for (std::int32_t d = 0; d < consumed; ++d) (void)rng();
      fold_state(digest, state);
      fnv_fold(digest, rng());
    }
  }
  return digest;
}

struct PinnedDigests {
  const char* model;
  RngVersion version;
  std::uint64_t fault_layer;  ///< record sink: cells + records + position
  std::uint64_t sim_layer;    ///< bitmap sink: cells + stream position
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

      EXPECT_EQ(hex(record_digest(version, pinned_model.model)),
                hex(expected.fault_layer))
          << label("record sink");

      // The same model as a one-component mixture (a mixture cannot nest).
      if (pinned_model.model.kind != FaultModel::Kind::kMixture) {
        EXPECT_EQ(hex(record_digest(
                      version, FaultModel::mixture({pinned_model.model}))),
                  hex(expected.fault_layer))
            << label("record sink, mixture({X})");
      }

      EXPECT_EQ(hex(sim_digest(version, pinned_model.model)),
                hex(expected.sim_layer))
          << label("bitmap sink");

      // The lock-step v1 Bernoulli path: the generic template at 4 and 8
      // lanes, and every ISA build this CPU runs.
      if (pinned_model.name == "bernoulli" && version == RngVersion::kV1) {
        std::vector<LockstepKernel> kernels = {generic_lockstep_kernel<4>(),
                                               generic_lockstep_kernel<8>()};
        for (const LockstepKernel& kernel : supported_lockstep_kernels()) {
          kernels.push_back(kernel);
        }
        for (const LockstepKernel& kernel : kernels) {
          EXPECT_EQ(hex(lockstep_digest(kernel, pinned_model.model)),
                    hex(expected.sim_layer))
              << label("sim lock-step ") << kernel.isa << " x"
              << kernel.lanes;
        }
      }
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
  const std::int32_t cells =
      biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6).cell_count();
  FaultModel model = FaultModel::fixed_count(0);
  for (const double param :
       {1e20, -1e20, 2147483648.0, 2.5, -1.0, std::nan("")}) {
    model.param = param;
    EXPECT_THROW(validate(model, cells), ContractViolation) << param;
  }
  model.param = cells;
  EXPECT_NO_THROW(validate(model, cells));
  model.param = cells + 1;
  EXPECT_THROW(validate(model, cells), ContractViolation);
}

TEST(SimFaultModelValidate, CapsClusteredMeanSpotsAndRadius) {
  // Past kMaxMeanSpots the Poisson spot count overflows int32 (3e9) or the
  // exponent folding stops making progress (1e308); a huge radius makes the
  // spot disk exhaust memory. Both caps are inclusive.
  const std::int32_t cells =
      biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 6, 6).cell_count();
  const ClusterShape shape{1, 0.9, 0.3};
  EXPECT_NO_THROW(
      validate(FaultModel::clustered(kMaxMeanSpots, shape), cells));
  for (const double mean_spots :
       {std::nextafter(kMaxMeanSpots, 2.0 * kMaxMeanSpots), 3e9, 1e308,
        std::numeric_limits<double>::infinity(), std::nan("")}) {
    EXPECT_THROW(validate(FaultModel::clustered(mean_spots, shape), cells),
                 ContractViolation)
        << mean_spots;
  }
  ClusterShape wide = shape;
  wide.radius = kMaxClusterRadius;
  EXPECT_NO_THROW(validate(FaultModel::clustered(2.0, wide), cells));
  for (const std::int32_t radius : {kMaxClusterRadius + 1, 100000}) {
    wide.radius = radius;
    EXPECT_THROW(validate(FaultModel::clustered(2.0, wide), cells),
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

TEST(SimFaultModelKeys, ConcreteBuilderKeysEqualTheNamedFactories) {
  // A non-default shape: only the clustered kind may carry it, because
  // query_key renders the cluster fields of every kind.
  const ClusterShape shape{3, 0.7, 0.2};
  struct Case {
    FaultModel::Kind kind;
    double param;
    FaultModel named;
  };
  const Case cases[] = {
      {FaultModel::Kind::kBernoulli, 0.93, FaultModel::bernoulli(0.93)},
      {FaultModel::Kind::kFixedCount, 12.0, FaultModel::fixed_count(12)},
      {FaultModel::Kind::kClustered, 1.5, FaultModel::clustered(1.5, shape)},
      {FaultModel::Kind::kParametric, 1.2, FaultModel::parametric(1.2)},
  };
  for (const Case& c : cases) {
    YieldQuery built;
    built.fault = FaultModel::concrete(c.kind, c.param, shape);
    YieldQuery named;
    named.fault = c.named;
    EXPECT_EQ(query_key(built), query_key(named))
        << "kind " << static_cast<int>(c.kind);
  }
  EXPECT_THROW(FaultModel::concrete(FaultModel::Kind::kMixture, 0.5, shape),
               ContractViolation);
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
