// Ablation: the paper assumes independent (spot) defects. This bench keeps
// the *expected* number of failed cells fixed and compares yield under iid
// Bernoulli faults versus spatially clustered defects — clustering is
// harsher for interstitial redundancy because one cluster can wipe out a
// primary together with all of its spares.
#include <iostream>

#include "biochip/dtmb.hpp"
#include "io/table.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"

int main() {
  using namespace dmfb;

  io::Table table({"design", "E[failures]/chip", "yield (iid)",
                   "yield (clustered r=1)", "yield (clustered r=2)"});
  for (const auto kind :
       {biochip::DtmbKind::kDtmb2_6, biochip::DtmbKind::kDtmb3_6,
        biochip::DtmbKind::kDtmb4_4}) {
    sim::Session session(biochip::make_dtmb_array_with_primaries(kind, 150));
    const double cells = session.design().cell_count();
    for (const double expected_failures : {4.0, 8.0, 12.0}) {
      sim::YieldQuery query;
      query.runs = 10000;

      query.fault = sim::FaultModel::bernoulli(1.0 - expected_failures / cells);
      const auto iid = session.run(query);

      const auto clustered_yield = [&](std::int32_t radius) {
        const sim::ClusterShape shape{radius, 0.9, 0.4};
        query.fault = sim::FaultModel::clustered(
            expected_failures / sim::expected_failures_per_spot(shape), shape);
        return session.run(query).value;
      };

      table.row(4)
          .cell(std::string(biochip::dtmb_info(kind).name))
          .cell(expected_failures)
          .cell(iid.value)
          .cell(clustered_yield(1))
          .cell(clustered_yield(2));
    }
  }
  table.print(std::cout,
              "Ablation - iid vs clustered defects (equal expected failure "
              "counts, 10000 runs)");
  std::cout << "Clustering violates the paper's independence assumption and "
               "lowers yield at equal defect density; wider clusters hurt "
               "more.\n";
  return 0;
}
