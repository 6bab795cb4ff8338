// Ablation: the two repair checks — Hopcroft-Karp on an explicit
// bipartite graph and the cell-space augmenting paths — must give
// identical repair verdicts; this bench confirms agreement on a shared
// fault stream and compares wall-clock cost.
//
// Structural Monte-Carlo runs build no graph: FaultState::repairable
// settles each fault set with first-fit claims plus augmenting paths in
// cell space. Hopcroft-Karp runs where the reconfigurer builds a bipartite
// graph, reconfig::LocalReconfigurer, whose graph operational plans share.
// So the bench pre-samples the query's fault sets from the per-run streams
// sim::Session draws, keeps the contested ones (those first-fit cannot
// saturate), and asks LocalReconfigurer::feasible on a HexArray carrying
// each set. Every verdict must equal FaultState::repairable's, and the
// session's yield must equal the replayed count. The cell-space path is
// timed on the same sets as a row of its own. For the spares-only pool,
// reconfig::GreedyReconfigurer is that first-fit: same primary order, same
// spare order. Each timed loop includes loading and clearing the set.
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
  const auto elapsed_ms = [](Clock::time_point start) {
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - start)
                   .count()) /
           1000.0;
  };

  auto array =
      biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6, 240);
  const auto design = sim::ChipDesign::make(array);
  sim::YieldQuery query;
  query.fault = sim::FaultModel::bernoulli(0.93);
  query.runs = 10000;
  const reconfig::GreedyReconfigurer first_fit(query.policy);

  // The runs' fault sets, split into those the certificate decides and the
  // contested rest.
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

  // The cell-space verdicts Hopcroft-Karp is checked against.
  std::vector<char> reference(contested.size(), 0);
  std::int64_t reference_successes = certified;
  auto start = Clock::now();
  for (std::size_t i = 0; i < contested.size(); ++i) {
    for (const sim::CellIndex cell : contested[i]) state.set_faulty(cell);
    reference[i] = state.repairable(query.policy, query.pool);
    reference_successes += reference[i];
    state.reset();
  }
  const double reference_ms = elapsed_ms(start);

  io::Table table({"path", "yield @ p=0.93", "contested sets",
                   "disagreements", "time (ms)"});
  const auto yield_of = [&](std::int64_t successes) {
    return static_cast<double>(successes) / static_cast<double>(query.runs);
  };
  table.row(4)
      .cell(std::string("cell space (FaultState::repairable)"))
      .cell(yield_of(reference_successes))
      .cell(static_cast<std::int64_t>(contested.size()))
      .cell(std::int64_t{0})
      .cell(reference_ms);
  const reconfig::LocalReconfigurer reconfigurer(query.policy, query.pool);
  std::int64_t successes = certified;
  std::int64_t disagreements = 0;
  start = Clock::now();
  for (std::size_t i = 0; i < contested.size(); ++i) {
    for (const sim::CellIndex cell : contested[i]) {
      array.set_health(cell, biochip::CellHealth::kFaulty);
    }
    const bool ok = reconfigurer.feasible(array);
    successes += ok;
    disagreements += ok != (reference[i] != 0);
    array.reset_health();
  }
  table.row(4)
      .cell(std::string("Hopcroft-Karp (LocalReconfigurer::feasible)"))
      .cell(yield_of(successes))
      .cell(static_cast<std::int64_t>(contested.size()))
      .cell(disagreements)
      .cell(elapsed_ms(start));
  // The session must count what the cell-space replay counts.
  const auto estimate = sim::Session(design).run(query);
  const bool all_agree =
      disagreements == 0 && estimate.successes == reference_successes;

  table.print(std::cout, "Ablation - repair checks on the fault sets "
                         "first-fit cannot saturate (every verdict checked "
                         "against FaultState::repairable)");
  std::cout << "First-fit certificate decided "
            << static_cast<double>(certified) /
                   static_cast<double>(query.runs)
            << " of the runs\n";
  std::cout << "Session yield: " << estimate.value << " ("
            << estimate.successes << " of " << estimate.runs << " runs)\n";
  std::cout << "Checks agree exactly: " << (all_agree ? "yes" : "NO") << '\n';
  return all_agree ? 0 : 1;
}
