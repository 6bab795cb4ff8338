#include "sim/geometric_gaps.hpp"

namespace dmfb::sim {

namespace {

#if defined(__x86_64__)
[[gnu::target("avx2,fma")]] void at_counters_avx2(std::uint64_t key,
                                                  std::uint64_t counter,
                                                  std::int32_t n,
                                                  double inv_denom,
                                                  double count,
                                                  double* codes) {
  gap_codes<4, true>(key, counter, nullptr, n, inv_denom, count, codes);
}

[[gnu::target("avx2,fma")]] void of_uniforms_avx2(const double* uniforms,
                                                  std::int32_t n,
                                                  double inv_denom,
                                                  double count,
                                                  double* codes) {
  gap_codes<4, false>(0, 0, uniforms, n, inv_denom, count, codes);
}

const GapKernel* detect_kernel() {
  static const GapKernel kAvx2{4, "avx2", &at_counters_avx2,
                               &of_uniforms_avx2};
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
             ? &kAvx2
             : nullptr;
}
#else
const GapKernel* detect_kernel() { return nullptr; }
#endif

}  // namespace

const GapKernel* default_gap_kernel() {
  static const GapKernel* const kernel = detect_kernel();
  return kernel;
}

}  // namespace dmfb::sim
