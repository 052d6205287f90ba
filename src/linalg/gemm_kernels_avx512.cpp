// AVX-512F GEMM microkernel. This TU is the only one compiled with
// -mavx512f (see CMakeLists.txt); nothing here may be inlined elsewhere, and
// micro_kernel_avx512 must only run after cpu_features detected AVX-512F.
//
// Tile: 8×16 doubles — 16 zmm accumulators + 2 B loads + 1 A broadcast per
// row per k step = 19 of 32 registers, double the arithmetic per B load of
// the 6×8 AVX2 tile.
//
// Bitwise-reproducibility notes (the properties tests pin):
//  * Every per-element accumulation is a chain of true FMAs in ascending-k
//    order. The edge path runs the same full-width vector FMA chain with
//    lanes masked only at the C load/store, so an element computes the
//    identical value whether its tile is full (interior path) or partial
//    (masked path). Row partitioning across threads can change tile
//    membership, never values.
//  * The final C update is itself one FMA: c = fma(alpha, acc, c), or
//    fma(alpha, acc, 0.0) when the product overwrites C (C is not read).
//  * Results differ from the AVX2/scalar tiers only in the last ulps (tile
//    geometry changes which k-chain an element belongs to, never its order);
//    cross-ISA comparisons use an epsilon — see the GemmSimd tests.
#include "src/linalg/gemm_kernel.h"

#if defined(PF_HAVE_AVX512)

#include <immintrin.h>

namespace pf::detail {

namespace {

// Partial tiles: full-width FMA chains per row (the B sliver is always
// kNR512 wide and zero-padded past nr, so whole-vector loads are safe);
// lane masks confine the C read-modify-write to the live nr columns.
void edge_kernel_avx512(std::size_t kc, double alpha, const double* ap,
                        std::size_t a_rs, std::size_t a_cs, const double* bp,
                        double* c, std::size_t ldc, std::size_t mr,
                        std::size_t nr, bool overwrite) {
  const __mmask8 mlo =
      nr >= 8 ? 0xFF : static_cast<__mmask8>((1u << nr) - 1u);
  const __mmask8 mhi = nr >= kNR512 ? 0xFF
                       : nr > 8
                           ? static_cast<__mmask8>((1u << (nr - 8)) - 1u)
                           : 0;
  const __m512d valpha = _mm512_set1_pd(alpha);
  for (std::size_t i = 0; i < mr; ++i) {
    const double* arow = ap + i * a_rs;
    __m512d lo = _mm512_setzero_pd(), hi = _mm512_setzero_pd();
    for (std::size_t k = 0; k < kc; ++k) {
      const __m512d a = _mm512_set1_pd(arow[k * a_cs]);
      lo = _mm512_fmadd_pd(a, _mm512_loadu_pd(bp + k * kNR512), lo);
      hi = _mm512_fmadd_pd(a, _mm512_loadu_pd(bp + k * kNR512 + 8), hi);
    }
    double* crow = c + i * ldc;
    const __m512d clo =
        overwrite ? _mm512_setzero_pd() : _mm512_maskz_loadu_pd(mlo, crow);
    _mm512_mask_storeu_pd(crow, mlo, _mm512_fmadd_pd(valpha, lo, clo));
    if (mhi != 0) {
      const __m512d chi = overwrite ? _mm512_setzero_pd()
                                    : _mm512_maskz_loadu_pd(mhi, crow + 8);
      _mm512_mask_storeu_pd(crow + 8, mhi,
                            _mm512_fmadd_pd(valpha, hi, chi));
    }
  }
}

}  // namespace

void micro_kernel_avx512(std::size_t kc, double alpha, const double* ap,
                         std::size_t a_rs, std::size_t a_cs, const double* bp,
                         double* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr, bool overwrite) {
  if (mr != kMR512 || nr != kNR512) {
    edge_kernel_avx512(kc, alpha, ap, a_rs, a_cs, bp, c, ldc, mr, nr,
                       overwrite);
    return;
  }
  // 8×16 interior tile: 16 accumulators (2 zmm per row), 2 B loads, 1 A
  // broadcast per row per k step.
  __m512d a00 = _mm512_setzero_pd(), a01 = _mm512_setzero_pd();
  __m512d a10 = _mm512_setzero_pd(), a11 = _mm512_setzero_pd();
  __m512d a20 = _mm512_setzero_pd(), a21 = _mm512_setzero_pd();
  __m512d a30 = _mm512_setzero_pd(), a31 = _mm512_setzero_pd();
  __m512d a40 = _mm512_setzero_pd(), a41 = _mm512_setzero_pd();
  __m512d a50 = _mm512_setzero_pd(), a51 = _mm512_setzero_pd();
  __m512d a60 = _mm512_setzero_pd(), a61 = _mm512_setzero_pd();
  __m512d a70 = _mm512_setzero_pd(), a71 = _mm512_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const double* acol = ap + k * a_cs;
    const __m512d b0 = _mm512_loadu_pd(bp + k * kNR512);
    const __m512d b1 = _mm512_loadu_pd(bp + k * kNR512 + 8);
    __m512d a;
    a = _mm512_set1_pd(acol[0]);
    a00 = _mm512_fmadd_pd(a, b0, a00);
    a01 = _mm512_fmadd_pd(a, b1, a01);
    a = _mm512_set1_pd(acol[a_rs]);
    a10 = _mm512_fmadd_pd(a, b0, a10);
    a11 = _mm512_fmadd_pd(a, b1, a11);
    a = _mm512_set1_pd(acol[2 * a_rs]);
    a20 = _mm512_fmadd_pd(a, b0, a20);
    a21 = _mm512_fmadd_pd(a, b1, a21);
    a = _mm512_set1_pd(acol[3 * a_rs]);
    a30 = _mm512_fmadd_pd(a, b0, a30);
    a31 = _mm512_fmadd_pd(a, b1, a31);
    a = _mm512_set1_pd(acol[4 * a_rs]);
    a40 = _mm512_fmadd_pd(a, b0, a40);
    a41 = _mm512_fmadd_pd(a, b1, a41);
    a = _mm512_set1_pd(acol[5 * a_rs]);
    a50 = _mm512_fmadd_pd(a, b0, a50);
    a51 = _mm512_fmadd_pd(a, b1, a51);
    a = _mm512_set1_pd(acol[6 * a_rs]);
    a60 = _mm512_fmadd_pd(a, b0, a60);
    a61 = _mm512_fmadd_pd(a, b1, a61);
    a = _mm512_set1_pd(acol[7 * a_rs]);
    a70 = _mm512_fmadd_pd(a, b0, a70);
    a71 = _mm512_fmadd_pd(a, b1, a71);
  }
  const __m512d valpha = _mm512_set1_pd(alpha);
  const auto store_row = [&](double* crow, __m512d lo, __m512d hi) {
    const __m512d clo =
        overwrite ? _mm512_setzero_pd() : _mm512_loadu_pd(crow);
    const __m512d chi =
        overwrite ? _mm512_setzero_pd() : _mm512_loadu_pd(crow + 8);
    _mm512_storeu_pd(crow, _mm512_fmadd_pd(valpha, lo, clo));
    _mm512_storeu_pd(crow + 8, _mm512_fmadd_pd(valpha, hi, chi));
  };
  store_row(c + 0 * ldc, a00, a01);
  store_row(c + 1 * ldc, a10, a11);
  store_row(c + 2 * ldc, a20, a21);
  store_row(c + 3 * ldc, a30, a31);
  store_row(c + 4 * ldc, a40, a41);
  store_row(c + 5 * ldc, a50, a51);
  store_row(c + 6 * ldc, a60, a61);
  store_row(c + 7 * ldc, a70, a71);
}

}  // namespace pf::detail

#endif  // PF_HAVE_AVX512
