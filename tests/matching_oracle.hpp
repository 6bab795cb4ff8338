// Exact reference for the matching tests that needs no second matching
// implementation: exhaustive maximum-matching size for tiny graphs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr_matching.hpp"

namespace dmfb::graph {

/// Maximum matching size by exhaustive search over which right vertices
/// are taken, memoised per (left vertex, taken set): best[a][mask] is the
/// largest matching of left vertices a.. that avoids the right set `mask`.
/// O(left * 2^right * degree), so only for right sides of ~16 or fewer.
inline std::int32_t brute_force_matching_size(const CsrBipartiteGraph& g) {
  const std::int32_t left = g.left_count();
  const std::size_t masks = std::size_t{1} << g.right_count();
  std::vector<std::int32_t> best((static_cast<std::size_t>(left) + 1) * masks,
                                 0);
  for (std::int32_t a = left - 1; a >= 0; --a) {
    const std::size_t row = static_cast<std::size_t>(a) * masks;
    const std::size_t next = row + masks;
    for (std::size_t mask = 0; mask < masks; ++mask) {
      std::int32_t value = best[next + mask];  // leave a unmatched
      for (const std::int32_t b : g.neighbors_of_left(a)) {
        const std::size_t bit = std::size_t{1} << b;
        if ((mask & bit) == 0) {
          value = std::max(value, 1 + best[next + (mask | bit)]);
        }
      }
      best[row + mask] = value;
    }
  }
  return best[0];
}

}  // namespace dmfb::graph
