// Extension bench: analytic yield bounds vs Monte-Carlo for every design.
//
// The paper's Section 6 states that beyond DTMB(1,6) "it is hard to develop
// an analytical model"; these provable lower/upper bounds (dedicated-spare
// clusters / disjoint death traps) bracket the simulated value and give the
// closed-form handle the paper lacked.
#include <iostream>

#include "biochip/dtmb.hpp"
#include "io/table.hpp"
#include "sim/session.hpp"
#include "yield/bounds.hpp"

int main() {
  using namespace dmfb;
  using biochip::DtmbKind;

  io::Table table({"design", "p", "analytic lower", "Monte-Carlo",
                   "analytic upper"});
  for (const DtmbKind kind :
       {DtmbKind::kDtmb1_6, DtmbKind::kDtmb2_6, DtmbKind::kDtmb3_6,
        DtmbKind::kDtmb4_4}) {
    const auto array = biochip::make_dtmb_array(kind, 14, 14);
    sim::Session session(array);
    for (const double p : {0.90, 0.94, 0.98}) {
      const auto bounds = yield::analytic_yield_bounds(array, p);
      sim::YieldQuery query;
      query.fault = sim::FaultModel::bernoulli(p);
      query.runs = 10000;
      const auto mc = session.run(query);
      table.row(4)
          .cell(std::string(biochip::dtmb_info(kind).name))
          .cell(p)
          .cell(bounds.lower)
          .cell(mc.value)
          .cell(bounds.upper);
    }
  }
  table.print(std::cout,
              "Extension - provable yield bounds bracket Monte-Carlo "
              "(14x14 arrays, 10000 runs)");
  std::cout << "The dedicated-spare lower bound is exact for DTMB(1,6) "
               "clusters (the paper's closed form is the special case).\n";
  return 0;
}
