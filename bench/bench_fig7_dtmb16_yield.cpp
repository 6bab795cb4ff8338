// Regenerates paper Figure 7: yield of DTMB(1,6) versus a biochip without
// redundancy, for several survival probabilities p and primary-cell counts
// n. The paper plots the closed form Y = (p^7 + 7 p^6 (1-p))^(n/6); we print
// that formula, a Monte-Carlo cross-check on cluster-exact arrays (where the
// formula is exact), and the no-redundancy baseline p^n.
#include <iostream>

#include "biochip/dtmb.hpp"
#include "io/table.hpp"
#include "sim/session.hpp"
#include "yield/analytic.hpp"

int main() {
  using namespace dmfb;

  const int kRuns = 10000;  // as in the paper
  std::cout << "Figure 7 - DTMB(1,6) yield vs no redundancy ("
            << kRuns << " Monte-Carlo runs per point)\n\n";

  for (const std::int32_t n : {60, 120, 240}) {
    sim::Session session(biochip::make_dtmb16_cluster_array(n / 6));
    io::Table table({"p", "no-redundancy p^n", "DTMB(1,6) analytic",
                     "DTMB(1,6) Monte-Carlo", "MC 95% CI"});
    for (const double p :
         {0.90, 0.92, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.00}) {
      sim::YieldQuery query;
      query.fault = sim::FaultModel::bernoulli(p);
      query.runs = kRuns;
      const auto mc = session.run(query);
      table.row(4)
          .cell(p)
          .cell(yield::no_redundancy_yield(n, p))
          .cell(yield::dtmb16_yield(n, p))
          .cell(mc.value)
          .cell("[" + io::format_double(mc.ci95.lo, 4) + ", " +
                io::format_double(mc.ci95.hi, 4) + "]");
    }
    table.print(std::cout, "n = " + std::to_string(n) + " primary cells");
  }
  std::cout << "Shape check (paper): interstitial redundancy lifts yield at "
               "every p; the gap grows with n.\n";
  return 0;
}
