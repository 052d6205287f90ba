// Internal microkernel ABI shared by the packed GEMM driver (gemm.cpp) and
// the per-ISA kernel TUs. Not part of the public linalg API.
//
// Register tiles (MR×NR doubles), one per ISA level:
//   scalar / AVX2   6×8   — with AVX2 that is 12 ymm accumulators + 2 B
//                           loads + 1 A broadcast = 15 of 16 registers, the
//                           double-precision analogue of the canonical 6×16
//                           single-precision AVX2 tile.
//   AVX-512         8×16  — 16 zmm accumulators + 2 B loads + 1 A broadcast
//                           = 19 of 32 registers; twice the arithmetic per B
//                           load of the AVX2 tile.
// The driver reads the tile geometry from KernelSpec at runtime and blocks
// the output rows accordingly; kKC k-panel blocking is shared by every level.
//
// Operand layouts the driver guarantees:
//   ap  Op(A) read in place through a (row stride, column stride) pair:
//       element (i, k) of the tile at ap[i*a_rs + k*a_cs]. The nn and nt
//       products pass (lda, 1), row-major A as it lies; the tn products pass
//       (1, lda), since aᵀ(i, k) = a(k, i). Nothing copies A.
//   bp  packed B sliver, always spec.nr wide, zero-padded past nr:
//       bp[k*NR + j] (NR is the kernel's own full tile width).
//
// The microkernel computes, for i<mr, j<nr:
//   C[i*ldc + j] += alpha * sum_k ap[i*a_rs + k*a_cs] * bp[k*NR+j]
// with k strictly ascending per element and the alpha scaling applied once
// after the k loop. Both requirements are load-bearing: ascending-k per
// element is what makes row-partitioned threading bitwise reproducible, and
// a single alpha application keeps edge tiles identical to interior tiles.
// With `overwrite` set the epilogue adds alpha·acc to +0.0 instead of to C
// (fma(alpha, acc, 0.0) on the FMA tiers, 0.0 + alpha·acc on the scalar
// tier) and never reads C: the bits a zero-filled C would get, ±0
// included, without the fill. The driver sets it for the first k block of
// an overwriting product; later blocks accumulate.
// It reads A only at rows i < mr and k < kc, so a partial tile never reads
// past its view. The strides never enter the arithmetic: every A layout
// gives the same bits.
#pragma once

#include <cstddef>

namespace pf::detail {

inline constexpr std::size_t kMR = 6;    // scalar/AVX2 register-tile rows
inline constexpr std::size_t kNR = 8;    // scalar/AVX2 register-tile columns
inline constexpr std::size_t kKC = 256;  // k-panel depth (B sliver in L1)

#if defined(PF_HAVE_AVX512)
inline constexpr std::size_t kMR512 = 8;   // AVX-512 register-tile rows
inline constexpr std::size_t kNR512 = 16;  // AVX-512 register-tile columns
#endif

using MicroKernelFn = void (*)(std::size_t kc, double alpha, const double* ap,
                               std::size_t a_rs, std::size_t a_cs,
                               const double* bp, double* c, std::size_t ldc,
                               std::size_t mr, std::size_t nr, bool overwrite);

// A kernel plus the tile geometry the driver must block and pack B for. mr/nr are the
// FULL tile sizes (the kernel's own constants); the per-call mr/nr arguments
// may be smaller at block edges.
struct KernelSpec {
  MicroKernelFn fn = nullptr;
  std::size_t mr = kMR;
  std::size_t nr = kNR;
};

// Portable fallback; mirrors the AVX2 blocking exactly (same panels, same
// per-element accumulation order), plain mul+add arithmetic.
void micro_kernel_scalar(std::size_t kc, double alpha, const double* ap,
                         std::size_t a_rs, std::size_t a_cs, const double* bp,
                         double* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr, bool overwrite);

#if defined(PF_HAVE_AVX2)
// FMA kernel, compiled with -mavx2 -mfma in gemm_kernels_avx2.cpp. Must only
// be called when cpu_features reports SimdLevel::kAvx2 or higher.
void micro_kernel_avx2(std::size_t kc, double alpha, const double* ap,
                       std::size_t a_rs, std::size_t a_cs, const double* bp,
                       double* c, std::size_t ldc, std::size_t mr,
                       std::size_t nr, bool overwrite);
#endif

#if defined(PF_HAVE_AVX512)
// AVX-512F kernel, compiled with -mavx512f in gemm_kernels_avx512.cpp. Must
// only be called when cpu_features reports SimdLevel::kAvx512.
void micro_kernel_avx512(std::size_t kc, double alpha, const double* ap,
                         std::size_t a_rs, std::size_t a_cs, const double* bp,
                         double* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr, bool overwrite);
#endif

// The kernel + tile geometry matching cpu_features::active_simd_level().
KernelSpec active_kernel_spec();

}  // namespace pf::detail
