#include "src/linalg/exp_span.h"

#include "src/common/cpu_features.h"
#include "src/linalg/exp_kernel.h"

namespace pf {

void exp_span(const double* x, double* y, std::size_t n) {
  const SimdLevel level = active_simd_level();
#if defined(PF_HAVE_AVX512)
  if (level == SimdLevel::kAvx512) return detail::exp_span_avx512(x, y, n);
#endif
#if defined(PF_HAVE_AVX2)
  if (level == SimdLevel::kAvx2) return detail::exp_span_avx2(x, y, n);
#endif
  (void)level;
  detail::exp_span_body(x, y, n);  // the scalar tier, this TU's build
}

}  // namespace pf
