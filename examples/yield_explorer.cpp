// Yield explorer: the design-space tool a biochip architect would use.
//
// Given a required number of working (primary) cells and an expected
// per-cell survival probability p, it evaluates every DTMB redundancy
// level — raw yield, effective yield (yield per unit area), area overhead —
// and recommends (a) the yield-optimal design, (b) the effective-yield
// optimal design, and (c) the cheapest design meeting a target yield.
//
// Usage:  yield_explorer [primaries] [p] [target_yield]
// e.g.:   ./build/examples/yield_explorer 108 0.99 0.90
#include <iostream>

#include "common/parse.hpp"
#include "core/design_advisor.hpp"
#include "io/table.hpp"

int main(int argc, char** argv) {
  using namespace dmfb;

  // Strict parsing (common::parse_*): garbage like "abc" or "0.9x" is
  // rejected instead of silently truncating the way atoi/atof would.
  const auto primaries_arg =
      argc > 1 ? common::parse_int_in(argv[1], 1, 1'000'000)
               : std::optional<std::int64_t>(108);
  const auto p_arg = argc > 2 ? common::parse_double_in(argv[2], 0.0, 1.0)
                              : std::optional<double>(0.99);
  const auto target_arg = argc > 3
                              ? common::parse_double_in(argv[3], 0.0, 1.0)
                              : std::optional<double>(0.90);
  if (!primaries_arg || !p_arg || !target_arg) {
    std::cerr << "usage: yield_explorer [primaries>0] [p in 0..1] "
                 "[target in 0..1]\n";
    return 2;
  }
  const auto primaries = static_cast<std::int32_t>(*primaries_arg);
  const double p = *p_arg;
  const double target = *target_arg;

  const core::DesignAdvisor advisor(primaries);
  const auto advice = advisor.assess(p);

  io::Table table({"design", "RR", "primaries", "total cells", "yield",
                   "effective yield"});
  for (const auto& assessment : advice.assessments) {
    table.row(4)
        .cell(assessment.name)
        .cell(assessment.redundancy_ratio)
        .cell(assessment.primaries)
        .cell(assessment.total_cells)
        .cell(assessment.yield)
        .cell(assessment.effective_yield);
  }
  table.print(std::cout, "Design space at p = " + io::format_double(p, 3) +
                             " for >= " + std::to_string(primaries) +
                             " working cells");

  std::cout << "Best raw yield      : " << advice.best_yield().name << " ("
            << io::format_double(advice.best_yield().yield, 4) << ")\n";
  std::cout << "Best effective yield: " << advice.best_effective_yield().name
            << " ("
            << io::format_double(advice.best_effective_yield().effective_yield,
                                 4)
            << ")\n";
  if (const auto* pick = advice.cheapest_meeting(target)) {
    std::cout << "Cheapest design with yield >= " << target << ": "
              << pick->name << " (RR = "
              << io::format_double(pick->redundancy_ratio, 4) << ", yield "
              << io::format_double(pick->yield, 4) << ")\n";
  } else {
    std::cout << "No design reaches yield >= " << target
              << " at p = " << p << "; improve the process or shrink the "
              << "array.\n";
  }
  return 0;
}
