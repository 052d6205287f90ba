// The exp kernel's AVX2 tier: exp_span_body compiled with -mavx2 (no -mfma;
// see CMakeLists.txt), 4 doubles per ymm lane group. Returns the scalar
// tier's bits (exp_kernel.h); only runs after cpu_features detected AVX2.
#include "src/linalg/exp_kernel.h"

#if defined(PF_HAVE_AVX2)

namespace pf::detail {

void exp_span_avx2(const double* x, double* y, std::size_t n) {
  exp_span_body(x, y, n);
}

}  // namespace pf::detail

#endif  // PF_HAVE_AVX2
