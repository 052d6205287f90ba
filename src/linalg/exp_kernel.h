// Internal: the exp loop every SIMD tier compiles, and the vector tiers'
// entry points exp_span() dispatches to (exp_span.h is the public API).
//
// exp_span_body is written once and included by three TUs: exp_span.cpp
// (the scalar tier, baseline x86-64, which also dispatches) and
// exp_kernels_{avx2,avx512}.cpp. CMakeLists.txt builds all three at -O3
// outside Debug (GCC 12 vectorizes the loop only there) with
// -ffp-contract=off (identical bits) and -fno-trapping-math (GCC 12
// if-converts the range clamps only with it; the option drops the
// assumption that an FP instruction may trap, not a rounding).
// `g++ -fopt-info-vec` on each TU reports the loop vectorized. The function
// is static so each TU keeps its own copy: an inline function with external
// linkage would let the linker pick one ISA's copy for all.
//
// Method, per element:
//   k  = round(x / ln 2)                  the 1.5·2^52 shift rounds to even
//   hi = x − k·ln2_hi, lo = k·ln2_lo      Cody–Waite: ln2_hi ends in 21 zero
//   r  = hi − lo, |r| ≤ ~ln2/2            bits, so k·ln2_hi is exact
//   c  = r − r²·(P1 + r²·(P2 + … P5))     fdlibm's e_exp.c rational form:
//   e^r = 1 − ((lo − r·c/(2 − c)) − hi)   +, −, ×, ÷ only
//   e^x = e^r · 2^k1 · 2^k2               k1 = round(k/2), k2 = k − k1
// Each 2^ki is built from its exponent bits: adding 1.5·2^52 + 1023 puts
// ki + 1023 in the low mantissa bits, and a left shift by 52 moves exactly
// those 12 bits into the exponent field. Two factors keep both biased
// exponents in [485, 1535]: k = 1024 (x near 709.78) stays finite, and
// below k = −1022 e^r·2^k1 is exact and ·2^k2 rounds once into the
// subnormals (gradual underflow). The input is clamped to [−746, 710] by
// selects first: e^710 overflows to +∞ and e^−746 rounds to +0 as they
// must, and a NaN fails both compares, passes through and yields NaN.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace pf::detail {

static inline void exp_span_body(const double* x, double* y, std::size_t n) {
  constexpr double kMaxX = 710.0;   // e^710 > DBL_MAX: overflows to +∞
  constexpr double kMinX = -746.0;  // e^−746 < 2^−1075: rounds to +0
  constexpr double kInvLn2 = 1.44269504088896338700e+00;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 0x1.8p52;         // round-to-integer shift
  constexpr double kBias = kShift + 1023.0;   // ... plus the exponent bias
  constexpr double kP1 = 1.66666666666666019037e-01;
  constexpr double kP2 = -2.77777777770155933842e-03;
  constexpr double kP3 = 6.61375632143793436117e-05;
  constexpr double kP4 = -1.65339022054652515390e-06;
  constexpr double kP5 = 4.13813679705723846039e-08;
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i];
    v = v > kMaxX ? kMaxX : v;
    v = v < kMinX ? kMinX : v;
    const double k = (v * kInvLn2 + kShift) - kShift;
    const double k1 = (k * 0.5 + kShift) - kShift;
    const double k2 = k - k1;
    const double hi = v - k * kLn2Hi;
    const double lo = k * kLn2Lo;
    const double r = hi - lo;
    const double t = r * r;
    const double c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
    const double er = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    const double s1 =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(k1 + kBias) << 52);
    const double s2 =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(k2 + kBias) << 52);
    y[i] = er * s1 * s2;
  }
}

// One entry point per vector tier, each a call of exp_span_body in its own
// TU; the scalar tier is exp_span_body inside exp_span() itself.
#if defined(PF_HAVE_AVX2)
// Compiled with -mavx2 in exp_kernels_avx2.cpp; call only when
// cpu_features reports SimdLevel::kAvx2 or higher.
void exp_span_avx2(const double* x, double* y, std::size_t n);
#endif

#if defined(PF_HAVE_AVX512)
// Compiled with -mavx512f in exp_kernels_avx512.cpp; call only when
// cpu_features reports SimdLevel::kAvx512.
void exp_span_avx512(const double* x, double* y, std::size_t n);
#endif

}  // namespace pf::detail
