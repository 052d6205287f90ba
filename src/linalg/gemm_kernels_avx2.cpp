// AVX2+FMA GEMM microkernel. This TU is the only one compiled with
// -mavx2 -mfma (see CMakeLists.txt); nothing here may be inlined elsewhere,
// and micro_kernel_avx2 must only run after cpu_features detected AVX2.
//
// Bitwise-reproducibility notes (the properties tests pin):
//  * Every per-element accumulation is a chain of true FMAs in ascending-k
//    order. The edge path below uses std::fma, which -mfma compiles to the
//    same vfmadd instruction, so an element computes the identical value
//    whether its tile is full (vector path) or partial (edge path). Row
//    partitioning across threads can change tile membership, never values.
//  * The final C update is itself one FMA: c = fma(alpha, acc, c), or
//    fma(alpha, acc, 0.0) when the product overwrites C (C is not read).
#include "src/linalg/gemm_kernel.h"

#if defined(PF_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>

namespace pf::detail {

namespace {

// Partial tiles. Rows with a full 8-column sliver (the common M-edge case
// at row-block boundaries) keep the vector FMA path one row at a time; only
// the nr < 8 corner drops to scalar std::fma chains. Either way each
// element sees the identical ascending-k FMA sequence as the interior
// kernel, so tile membership never changes a value.
void edge_kernel_avx2(std::size_t kc, double alpha, const double* ap,
                      std::size_t a_rs, std::size_t a_cs, const double* bp,
                      double* c, std::size_t ldc, std::size_t mr,
                      std::size_t nr, bool overwrite) {
  if (nr == kNR) {
    for (std::size_t i = 0; i < mr; ++i) {
      const double* arow = ap + i * a_rs;
      __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
      for (std::size_t k = 0; k < kc; ++k) {
        const __m256d a = _mm256_broadcast_sd(arow + k * a_cs);
        lo = _mm256_fmadd_pd(a, _mm256_loadu_pd(bp + k * kNR), lo);
        hi = _mm256_fmadd_pd(a, _mm256_loadu_pd(bp + k * kNR + 4), hi);
      }
      const __m256d valpha = _mm256_set1_pd(alpha);
      double* crow = c + i * ldc;
      const __m256d clo =
          overwrite ? _mm256_setzero_pd() : _mm256_loadu_pd(crow);
      const __m256d chi =
          overwrite ? _mm256_setzero_pd() : _mm256_loadu_pd(crow + 4);
      _mm256_storeu_pd(crow, _mm256_fmadd_pd(valpha, lo, clo));
      _mm256_storeu_pd(crow + 4, _mm256_fmadd_pd(valpha, hi, chi));
    }
    return;
  }
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < nr; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < kc; ++k)
        acc = std::fma(ap[i * a_rs + k * a_cs], bp[k * kNR + j], acc);
      double* cij = c + i * ldc + j;
      *cij = std::fma(alpha, acc, overwrite ? 0.0 : *cij);
    }
  }
}

}  // namespace

void micro_kernel_avx2(std::size_t kc, double alpha, const double* ap,
                       std::size_t a_rs, std::size_t a_cs, const double* bp,
                       double* c, std::size_t ldc, std::size_t mr,
                       std::size_t nr, bool overwrite) {
  if (mr != kMR || nr != kNR) {
    edge_kernel_avx2(kc, alpha, ap, a_rs, a_cs, bp, c, ldc, mr, nr,
                     overwrite);
    return;
  }
  // 6×8 interior tile: 12 accumulators (2 ymm per row), 2 B loads, 1 A
  // broadcast per row per k step.
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
  __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
  __m256d a40 = _mm256_setzero_pd(), a41 = _mm256_setzero_pd();
  __m256d a50 = _mm256_setzero_pd(), a51 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const double* acol = ap + k * a_cs;
    const __m256d b0 = _mm256_loadu_pd(bp + k * kNR);
    const __m256d b1 = _mm256_loadu_pd(bp + k * kNR + 4);
    __m256d a;
    a = _mm256_broadcast_sd(acol);
    a00 = _mm256_fmadd_pd(a, b0, a00);
    a01 = _mm256_fmadd_pd(a, b1, a01);
    a = _mm256_broadcast_sd(acol + a_rs);
    a10 = _mm256_fmadd_pd(a, b0, a10);
    a11 = _mm256_fmadd_pd(a, b1, a11);
    a = _mm256_broadcast_sd(acol + 2 * a_rs);
    a20 = _mm256_fmadd_pd(a, b0, a20);
    a21 = _mm256_fmadd_pd(a, b1, a21);
    a = _mm256_broadcast_sd(acol + 3 * a_rs);
    a30 = _mm256_fmadd_pd(a, b0, a30);
    a31 = _mm256_fmadd_pd(a, b1, a31);
    a = _mm256_broadcast_sd(acol + 4 * a_rs);
    a40 = _mm256_fmadd_pd(a, b0, a40);
    a41 = _mm256_fmadd_pd(a, b1, a41);
    a = _mm256_broadcast_sd(acol + 5 * a_rs);
    a50 = _mm256_fmadd_pd(a, b0, a50);
    a51 = _mm256_fmadd_pd(a, b1, a51);
  }
  const __m256d valpha = _mm256_set1_pd(alpha);
  const auto store_row = [&](double* crow, __m256d lo, __m256d hi) {
    const __m256d clo =
        overwrite ? _mm256_setzero_pd() : _mm256_loadu_pd(crow);
    const __m256d chi =
        overwrite ? _mm256_setzero_pd() : _mm256_loadu_pd(crow + 4);
    _mm256_storeu_pd(crow, _mm256_fmadd_pd(valpha, lo, clo));
    _mm256_storeu_pd(crow + 4, _mm256_fmadd_pd(valpha, hi, chi));
  };
  store_row(c + 0 * ldc, a00, a01);
  store_row(c + 1 * ldc, a10, a11);
  store_row(c + 2 * ldc, a20, a21);
  store_row(c + 3 * ldc, a30, a31);
  store_row(c + 4 * ldc, a40, a41);
  store_row(c + 5 * ldc, a50, a51);
}

}  // namespace pf::detail

#endif  // PF_HAVE_AVX2
