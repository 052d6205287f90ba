// The exp kernel's AVX-512 tier: exp_span_body compiled with -mavx512f and
// -ffp-contract=off (see CMakeLists.txt), 8 doubles per zmm. The flag
// matters here: AVX-512F includes FMA, and a fused multiply-add would round
// once where the scalar tier rounds twice. Returns the scalar tier's bits
// (exp_kernel.h); only runs after cpu_features detected AVX-512F.
#include "src/linalg/exp_kernel.h"

#if defined(PF_HAVE_AVX512)

namespace pf::detail {

void exp_span_avx512(const double* x, double* y, std::size_t n) {
  exp_span_body(x, y, n);
}

}  // namespace pf::detail

#endif  // PF_HAVE_AVX512
