// SIMD tier helpers for suites that compare kernel tiers in one process.
#pragma once

#include <vector>

#include "src/common/cpu_features.h"

namespace pf {

// RAII guard: force a SIMD level for one scope, restore the previous one.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(active_simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

// Every tier this host and build can run, scalar first.
inline std::vector<SimdLevel> host_simd_levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kAvx2,
                      SimdLevel::kAvx512})
    if (static_cast<int>(l) <= static_cast<int>(detected_simd_level()))
      out.push_back(l);
  return out;
}

}  // namespace pf
