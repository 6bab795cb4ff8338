// Ablation: Fig. 13 semantics. Three progressively looser readings of
// "the chip still works after m faults" on the multiplexed diagnostics
// chip:
//   cover-all      — every faulty primary needs an adjacent healthy spare;
//   cover-used     — only the 108 assay cells need repair (spares only);
//   cover-used+    — assay cells may also be taken over by healthy unused
//                    primaries (category-1 + category-2 reconfiguration).
#include <iostream>

#include "assay/multiplexed_chip.hpp"
#include "io/table.hpp"
#include "sim/session.hpp"

int main() {
  using namespace dmfb;

  sim::Session session(assay::make_multiplexed_chip().array);
  io::Table table({"m (faults)", "cover-all", "cover-used (spares)",
                   "cover-used (spares+unused)"});
  for (const std::int32_t m : {5, 10, 15, 20, 25, 30, 35, 45}) {
    sim::YieldQuery query;
    query.fault = sim::FaultModel::fixed_count(m);
    query.runs = 10000;

    query.policy = reconfig::CoveragePolicy::kAllFaultyPrimaries;
    query.pool = reconfig::ReplacementPool::kSparesOnly;
    const double cover_all = session.run(query).value;

    query.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
    const double cover_used = session.run(query).value;

    query.pool = reconfig::ReplacementPool::kSparesAndUnusedPrimaries;
    const double cover_used_plus = session.run(query).value;

    table.row(4).cell(m).cell(cover_all).cell(cover_used).cell(
        cover_used_plus);
  }
  table.print(std::cout,
              "Ablation - coverage policy / replacement pool on the "
              "multiplexed chip (10000 runs)");
  std::cout << "cover-all is far too strict for an application chip (it "
               "repairs cells no assay touches); the paper's Fig. 13 numbers "
               "sit between the two cover-used variants.\n";
  return 0;
}
