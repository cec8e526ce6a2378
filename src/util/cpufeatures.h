#ifndef MHCA_UTIL_CPUFEATURES_H_
#define MHCA_UTIL_CPUFEATURES_H_

// A report of the widest x86 vector level this CPU offers, written into
// benchmark run contexts so results from different hosts are not compared
// as if alike. Nothing dispatches on it: the election and the winner
// validation have one scalar path each. Both functions go when the
// perfbench harness stops reading them (ROADMAP item 4).

namespace mhca::util {

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // AVX-512F + AVX-512VL
};

// What __builtin_cpu_supports reports (kScalar off x86 or GNU toolchains).
SimdLevel simd_level();

const char* simd_level_name(SimdLevel level);

}  // namespace mhca::util

#endif  // MHCA_UTIL_CPUFEATURES_H_
