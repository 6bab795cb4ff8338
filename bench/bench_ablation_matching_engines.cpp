// Ablation: the maximum-matching engines (Hopcroft-Karp, Kuhn, Dinic,
// push-relabel) must produce identical yields; this bench confirms agreement
// on a shared fault stream and compares wall-clock cost.
//
// FaultState::repairable settles most fault sets with a first-fit
// certificate before any engine starts, so timing whole queries would mostly
// time that shared pass. The bench pre-samples the query's fault sets from
// the per-run streams sim::Session draws, finds the sets first-fit cannot
// saturate, and times each engine on those sets alone. For the spares-only
// pool, reconfig::GreedyReconfigurer is that first-fit: same primary order,
// same spare order.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "biochip/dtmb.hpp"
#include "io/table.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/chip_design.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/session.hpp"

int main() {
  using namespace dmfb;
  using Clock = std::chrono::steady_clock;

  auto array =
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6, 240);
  const auto design = sim::ChipDesign::make(array);
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.93);
  query.runs = 10000;
  const reconfig::GreedyReconfigurer first_fit(query.policy);

  // The runs' fault sets, split into those the certificate decides and the
  // contested rest, where an engine has to run.
  sim::FaultState state(design);
  std::vector<std::vector<sim::CellIndex>> contested;
  std::int64_t certified = 0;
  for (std::int32_t run = 0; run < query.runs; ++run) {
    Rng rng = sim::run_stream(query.seed, run);
    sim::inject(query.fault, state, rng);
    for (const sim::CellIndex cell : state.faulty_cells()) {
      array.set_health(cell, biochip::CellHealth::kFaulty);
    }
    if (first_fit.feasible(array)) {
      ++certified;
    } else {
      contested.emplace_back(state.faulty_cells().begin(),
                             state.faulty_cells().end());
    }
    array.reset_health();
    state.reset();
  }

  io::Table table({"engine", "yield @ p=0.93", "runs", "contested sets",
                   "time (ms)"});
  sim::Session session(design);
  double reference = -1.0;
  bool all_agree = true;
  for (const auto engine :
       {graph::MatchingEngine::kHopcroftKarp, graph::MatchingEngine::kKuhn,
        graph::MatchingEngine::kDinic, graph::MatchingEngine::kPushRelabel}) {
    std::int64_t successes = certified;
    const auto start = Clock::now();
    for (const auto& faults : contested) {
      for (const sim::CellIndex cell : faults) state.set_faulty(cell);
      if (state.repairable(query.policy, engine, query.pool)) ++successes;
      state.reset();
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                             Clock::now() - start)
                             .count();
    query.engine = engine;
    const auto estimate = session.run(query);
    table.row(4)
        .cell(std::string(to_string(engine)))
        .cell(estimate.value)
        .cell(estimate.runs)
        .cell(static_cast<std::int64_t>(contested.size()))
        .cell(static_cast<double>(elapsed) / 1000.0);
    // The replay must count what the session counts, and every engine
    // must see the same fault stream and so give the same yield.
    if (estimate.successes != successes) all_agree = false;
    if (reference < 0) {
      reference = estimate.value;
    } else if (estimate.value != reference) {
      all_agree = false;
    }
  }
  table.print(std::cout, "Ablation - matching engines on the fault sets "
                         "first-fit cannot saturate (identical seeds => "
                         "identical yields expected)");
  std::cout << "First-fit certificate decided "
            << static_cast<double>(certified) /
                   static_cast<double>(query.runs)
            << " of the runs\n";
  std::cout << "Engines agree exactly: " << (all_agree ? "yes" : "NO") << '\n';
  return all_agree ? 0 : 1;
}
