#include "util/cpufeatures.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/assert.h"

namespace mhca::util {
namespace {

SimdLevel detect_max() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl"))
    return SimdLevel::kAvx512;
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

// -1 = not yet initialized from CPU + environment.
std::atomic<int> g_level{-1};

}  // namespace

SimdLevel max_simd_level() {
  static const SimdLevel best = detect_max();
  return best;
}

SimdLevel requested_simd_level() {
  // Both variables are checked even when one decides, so a typo in either
  // fails the same way under every combination.
  SimdLevel req = max_simd_level();
  if (const char* s = std::getenv("MHCA_SIMD")) {
    if (std::strcmp(s, "scalar") == 0) {
      req = SimdLevel::kScalar;
    } else if (std::strcmp(s, "avx2") == 0) {
      req = SimdLevel::kAvx2;
    } else {
      MHCA_ASSERT(std::strcmp(s, "avx512") == 0,
                  std::string("MHCA_SIMD='") + s +
                      "' is not a SIMD level; valid values: scalar, avx2, "
                      "avx512");
      req = SimdLevel::kAvx512;
    }
  }
  if (const char* f = std::getenv("MHCA_FORCE_SCALAR")) {
    MHCA_ASSERT(f[0] == '\0' || std::strcmp(f, "0") == 0 ||
                    std::strcmp(f, "1") == 0,
                std::string("MHCA_FORCE_SCALAR='") + f +
                    "' is not valid; valid values: 1 (force scalar), 0");
    if (std::strcmp(f, "1") == 0) req = SimdLevel::kScalar;
  }
  return req;
}

SimdLevel simd_level() {
  int v = g_level.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<SimdLevel>(v);
  const SimdLevel best = max_simd_level();
  SimdLevel req = requested_simd_level();
  if (static_cast<int>(req) > static_cast<int>(best)) req = best;
  // Racing first calls compute the same value; the exchange is idempotent.
  g_level.store(static_cast<int>(req), std::memory_order_relaxed);
  return req;
}

void set_simd_level(SimdLevel level) {
  const SimdLevel best = max_simd_level();
  if (static_cast<int>(level) > static_cast<int>(best)) level = best;
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
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
