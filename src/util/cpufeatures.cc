#include "util/cpufeatures.h"

namespace mhca::util {

SimdLevel simd_level() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
    case SimdLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

}  // namespace mhca::util
