#include "src/common/cpu_features.h"

#include <atomic>
#include <cstring>
#include <string>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace pf {

namespace {

SimdLevel detect() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // __builtin_cpu_supports folds the cpuid dance (including the xgetbv
  // OS-support check for the ymm/zmm state) into one call on GCC and Clang.
#if defined(PF_HAVE_AVX512)
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
#endif
#if defined(PF_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return SimdLevel::kAvx2;
#endif
#endif
  return SimdLevel::kScalar;
}

SimdLevel clamp_to_detected(SimdLevel level) {
  return static_cast<int>(level) > static_cast<int>(detected_simd_level())
             ? detected_simd_level()
             : level;
}

SimdLevel env_override(SimdLevel detected) {
  // PF_SIMD_LEVEL pins a tier by name; the legacy PF_FORCE_SCALAR=1 knob
  // stays working as an alias for PF_SIMD_LEVEL=scalar. An unrecognized
  // name is an error: a typo in a CI leg's pinned tier would otherwise test
  // the detected tier in silence. A valid name above the detected tier
  // clamps down, so AVX-512 rows self-skip on hosts without it.
  const std::string name = env_str("PF_SIMD_LEVEL", "");
  if (!name.empty()) {
    SimdLevel parsed = SimdLevel::kScalar;
    PF_CHECK(parse_simd_level(name.c_str(), &parsed))
        << "PF_SIMD_LEVEL='" << name
        << "' is not a SIMD level (want scalar, avx2 or avx512)";
    return clamp_to_detected(parsed);
  }
  if (env_int("PF_FORCE_SCALAR", 0) != 0) return SimdLevel::kScalar;
  return detected;
}

std::atomic<int>& active_storage() {
  // First use resolves the environment override; after that the level only
  // changes through set_simd_level.
  static std::atomic<int> level{static_cast<int>(env_override(detect()))};
  return level;
}

}  // namespace

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_simd_level(const char* name, SimdLevel* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
    return true;
  }
  if (std::strcmp(name, "avx512") == 0) {
    *out = SimdLevel::kAvx512;
    return true;
  }
  return false;
}

SimdLevel detected_simd_level() {
  static const SimdLevel level = detect();
  return level;
}

SimdLevel active_simd_level() {
  return static_cast<SimdLevel>(
      active_storage().load(std::memory_order_relaxed));
}

SimdLevel set_simd_level(SimdLevel level) {
  const SimdLevel clamped = clamp_to_detected(level);
  active_storage().store(static_cast<int>(clamped),
                         std::memory_order_relaxed);
  return clamped;
}

}  // namespace pf
