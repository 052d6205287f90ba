// Runtime CPU feature detection and SIMD dispatch level for linalg kernels.
//
// The packed GEMM driver has three ISA paths: a portable scalar microkernel,
// an AVX2+FMA microkernel, and an AVX-512F microkernel — the ISA-specific
// kernels live in dedicated TUs (src/linalg/gemm_kernels_avx2.cpp compiled
// with -mavx2 -mfma, src/linalg/gemm_kernels_avx512.cpp compiled with
// -mavx512f, each only when the toolchain supports the flags). Which path
// runs is a process-wide runtime choice:
//
//   detected_simd_level()  the highest level this host *and* this build can
//                          execute: cpuid must report the ISA and the
//                          matching TU must have been compiled in
//                          (PF_HAVE_AVX2 / PF_HAVE_AVX512).
//   active_simd_level()    what the kernels will actually use. Starts at the
//                          detected level, demoted by the PF_SIMD_LEVEL
//                          environment knob (values: scalar, avx2, avx512;
//                          any other value throws pf::Error on first use;
//                          the legacy PF_FORCE_SCALAR=1 is an alias for
//                          PF_SIMD_LEVEL=scalar), and adjustable with
//                          set_simd_level so tests and benches can compare
//                          paths in one process.
//
// The exp kernel under GELU and softmax (src/linalg/exp_span.h) dispatches
// on the same level, from one loop compiled per tier.
//
// Determinism contract: within one SIMD level results are bitwise
// reproducible across thread counts. Across levels the GEMM family
// (gemm.h) may differ in the last ulps, because FMA rounds the multiply-add
// as one operation and wider tiles change the (fixed, documented) order in
// which each kernel walks k. The exp kernel, and with it GELU and softmax,
// returns the same bits on every level and reads no libm.
#pragma once

namespace pf {

enum class SimdLevel {
  kScalar = 0,  // portable C++ kernels, no ISA assumptions
  kAvx2 = 1,    // AVX2 + FMA packed microkernel
  kAvx512 = 2,  // AVX-512F packed microkernel (wider register tile)
};

// "scalar" / "avx2" / "avx512" — stable strings for logs and bench labels.
const char* simd_level_name(SimdLevel level);

// Parses a PF_SIMD_LEVEL-style name ("scalar", "avx2", "avx512"; case
// sensitive). Returns true and writes *out on a match, false otherwise.
bool parse_simd_level(const char* name, SimdLevel* out);

// Highest level this host + build supports. Computed once (cpuid), cached.
SimdLevel detected_simd_level();

// Level the linalg kernels dispatch on right now. The first call reads
// PF_SIMD_LEVEL and throws pf::Error naming an unknown value.
SimdLevel active_simd_level();

// Requests a level; clamped to detected_simd_level(). Returns the level
// actually in effect afterwards. Thread-safe, but callers racing concurrent
// GEMMs get whichever level each call observes — switch while quiescent.
SimdLevel set_simd_level(SimdLevel level);

}  // namespace pf
