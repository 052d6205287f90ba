// exp over a contiguous span of doubles: the one exponential under GELU and
// softmax (src/nn/activations.cpp).
//
//   exp_span(x, y, n)   y[i] = e^{x[i]} for i < n. x may equal y (the
//                       kernel then runs in place); otherwise the two spans
//                       must not overlap.
//
// Accuracy: within 2 ulp of the exact value on [−708.39, 709.78] (0.89 ulp
// measured on a dense sweep; glibc's exp is correctly rounded to 0.5).
//
// Special values: exp(±0) = 1; exp(+∞) = +∞, and every x above ln DBL_MAX
// (709.782712893384) overflows to +∞; exp(−∞) = +0; NaN in, NaN out.
//
// Underflow policy: gradual. Below 2^−1022 (x < −708.3964) the result is
// the subnormal within one step (2^−1074) of the exact value, down to
// x ≈ −745.13, where it rounds to +0; it never flushes a representable
// subnormal to zero.
//
// Tiers: the kernel is one source loop compiled three times, like the GEMM
// microkernels — the baseline x86-64 TU, an -mavx2 TU and an -mavx512f TU —
// and dispatched on active_simd_level(), so PF_SIMD_LEVEL pins it too. Unlike
// the GEMM tiers (gemm.h), every tier returns the same bits: the loop uses
// only +, −, ×, ÷, compares and 64-bit shifts, each rounding the same in
// every lane width, and all three TUs build with -ffp-contract=off, so no
// multiply-add is fused on one tier and rounded twice on another. Nothing
// here calls libm, so results do not depend on the host's libm either.
#pragma once

#include <cstddef>

namespace pf {

void exp_span(const double* x, double* y, std::size_t n);

}  // namespace pf
