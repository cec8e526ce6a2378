#ifndef MHCA_UTIL_CPUFEATURES_H_
#define MHCA_UTIL_CPUFEATURES_H_

// Runtime SIMD dispatch for the election hot loops (src/mwis) and the
// winner-validation neighbor-mark check (src/graph). The contract:
//
//   - The scalar path is ALWAYS compiled and always correct; SIMD levels
//     are pure block filters over the same data, so results are
//     byte-identical at every level (fuzz-asserted by
//     tests/tiered_simd_differential_test.cc).
//   - The effective level is min(requested, what the CPU supports).
//     Requests come from the environment at first use —
//     `MHCA_SIMD=scalar|avx2|avx512` or the blunt `MHCA_FORCE_SCALAR=1` —
//     or programmatically via set_simd_level() (tests switch levels
//     in-process; the setter clamps to CPU capability too).
//   - Detection uses __builtin_cpu_supports and is cached in one atomic;
//     a query is one relaxed load on the hot path.

namespace mhca::util {

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // AVX-512F + AVX-512VL gathers/compares
};

// Best level this CPU can run (independent of any override).
SimdLevel max_simd_level();

// Level the environment requests (MHCA_FORCE_SCALAR=1 wins over
// MHCA_SIMD; max_simd_level() if neither is set), read afresh and not yet
// clamped to the CPU. Throws std::logic_error naming the valid values on
// any other setting, so a typo cannot silently run the default.
SimdLevel requested_simd_level();

// Effective dispatch level: min(requested_simd_level(), max_simd_level()).
// Cached after the first call; hot-path cost is one relaxed atomic load.
SimdLevel simd_level();

// Override the effective level (clamped to max_simd_level()). Intended
// for tests that sweep dispatch levels in one process.
void set_simd_level(SimdLevel level);

const char* simd_level_name(SimdLevel level);

}  // namespace mhca::util

#endif  // MHCA_UTIL_CPUFEATURES_H_
