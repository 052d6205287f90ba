// Tests for src/linalg: Matrix, GEMM variants, the exp kernel, Cholesky,
// Kronecker algebra.
//
// The Kronecker identities proven here are exactly the ones K-FAC relies on:
//   (A ⊗ B)⁻¹ = A⁻¹ ⊗ B⁻¹   and   (A ⊗ B) vec(X) = vec(B X Aᵀ).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/cpu_features.h"
#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/exp_span.h"
#include "src/linalg/gemm.h"
#include "src/linalg/matrix.h"
#include "tests/support/kron.h"
#include "tests/support/matrix_util.h"
#include "tests/support/simd_levels.h"
#include "tests/support/triangular_solve.h"

namespace pf {
namespace {

Matrix random_spd(std::size_t n, Rng& rng, double damping = 0.5) {
  const Matrix u = Matrix::randn(n, n, rng);
  Matrix spd = matmul_tn(u, u);
  spd *= 1.0 / static_cast<double>(n);
  add_diagonal(spd, damping);
  return spd;
}

// memcmp equality: distinguishes ±0 and NaN payloads, which == does not.
bool same_bits(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, IdentityAndTranspose) {
  const Matrix i3 = identity(3);
  EXPECT_DOUBLE_EQ(i3(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i3(0, 1), 0.0);
  Rng rng(5);
  const Matrix a = Matrix::randn(3, 4, rng);
  const Matrix at = a.transposed();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(at(c, r), a(r, c));
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = from_rows({{1, 2}, {3, 4}});
  const Matrix b = from_rows({{10, 20}, {30, 40}});
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(1, 0), 6.0);
  a.axpby(0.5, b, 0.1);
  EXPECT_DOUBLE_EQ(a(0, 0), 0.5 * 2.0 + 0.1 * 10.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 0.5 * 8.0 + 0.1 * 40.0 + 40.0);
}

TEST(Matrix, Reductions) {
  const Matrix a = from_rows({{3, -4}, {0, 0}});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(max_abs(a), 4.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(max_abs_diff(a, b), Error);
}

TEST(Gemm, MatchesHandComputedProduct) {
  const Matrix a = from_rows({{1, 2, 3}, {4, 5, 6}});
  const Matrix b = from_rows({{7, 8}, {9, 10}, {11, 12}});
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Gemm, TnAndNtAgreeWithExplicitTranspose) {
  Rng rng(21);
  const Matrix a = Matrix::randn(7, 5, rng);
  const Matrix b = Matrix::randn(7, 4, rng);
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), matmul(a.transposed(), b)), 1e-12);
  const Matrix c = Matrix::randn(6, 5, rng);
  const Matrix d = Matrix::randn(9, 5, rng);
  EXPECT_LT(max_abs_diff(matmul_nt(c, d), matmul(c, d.transposed())), 1e-12);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(23);
  const Matrix a = Matrix::randn(8, 8, rng);
  EXPECT_LT(max_abs_diff(matmul(a, identity(8)), a), 1e-14);
  EXPECT_LT(max_abs_diff(matmul(identity(8), a), a), 1e-14);
}

TEST(Gemm, AccumulationAddsAlphaTimesProduct) {
  Rng rng(29);
  const Matrix a = Matrix::randn(4, 3, rng);
  const Matrix b = Matrix::randn(3, 5, rng);
  Matrix c(4, 5, 1.0);
  matmul_acc(a, b, c, 2.0);
  Matrix expect = matmul(a, b);
  expect *= 2.0;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t col = 0; col < 5; ++col)
      EXPECT_NEAR(c(r, col), expect(r, col) + 1.0, 1e-12);
}

TEST(Gemm, BlockedMatchesNaiveOnLargerSizes) {
  // Exercises the kBlock tiling boundaries (sizes straddling 64).
  Rng rng(31);
  const Matrix a = Matrix::randn(65, 130, rng);
  const Matrix b = Matrix::randn(130, 67, rng);
  const Matrix c = matmul(a, b);
  // Naive reference.
  Matrix ref(65, 67, 0.0);
  for (std::size_t i = 0; i < 65; ++i)
    for (std::size_t k = 0; k < 130; ++k)
      for (std::size_t j = 0; j < 67; ++j) ref(i, j) += a(i, k) * b(k, j);
  EXPECT_LT(max_abs_diff(c, ref), 1e-10);
}

// The parallel kernels promise bitwise-identical results to the serial path
// (gemm.h): row blocks only partition the output, never reorder the
// per-element accumulation. Verified with exact equality, not a tolerance.
TEST(GemmParallel, AllVariantsBitwiseEqualSerialAcrossThreadCounts) {
  Rng rng(71);
  const Matrix a = Matrix::randn(97, 43, rng);
  const Matrix b = Matrix::randn(43, 71, rng);
  const Matrix t = Matrix::randn(97, 71, rng);   // for tn: (97x43)ᵀ·(97x71)
  const Matrix n = Matrix::randn(51, 43, rng);   // for nt: (97x43)·(51x43)ᵀ
  const Matrix s_nn = matmul(a, b);
  const Matrix s_tn = matmul_tn(a, t);
  const Matrix s_nt = matmul_nt(a, n);
  for (int threads : {2, 3, 7, 16, 64}) {
    const ExecContext ctx(1, threads);
    EXPECT_EQ(max_abs_diff(matmul(a, b, ctx), s_nn), 0.0)
        << "matmul threads=" << threads;
    EXPECT_EQ(max_abs_diff(matmul_tn(a, t, ctx), s_tn), 0.0)
        << "matmul_tn threads=" << threads;
    EXPECT_EQ(max_abs_diff(matmul_nt(a, n, ctx), s_nt), 0.0)
        << "matmul_nt threads=" << threads;
  }
}

TEST(GemmParallel, AccumulatingVariantsBitwiseEqualSerial) {
  Rng rng(73);
  const Matrix a = Matrix::randn(66, 30, rng);
  const Matrix b = Matrix::randn(30, 20, rng);
  Matrix serial(66, 20, 0.5), parallel(66, 20, 0.5);
  matmul_acc(a, b, serial, 1.7);
  matmul_acc(a, b, parallel, 1.7, ExecContext(1, 5));
  EXPECT_EQ(max_abs_diff(serial, parallel), 0.0);

  const Matrix dy = Matrix::randn(66, 20, rng);
  Matrix s_tn(30, 20, -1.0), p_tn(30, 20, -1.0);
  matmul_tn_acc(a, dy, s_tn, 0.25);
  matmul_tn_acc(a, dy, p_tn, 0.25, ExecContext(1, 4));
  EXPECT_EQ(max_abs_diff(s_tn, p_tn), 0.0);

  const Matrix c = Matrix::randn(20, 30, rng);
  Matrix s_nt(66, 20, 2.0), p_nt(66, 20, 2.0);
  matmul_nt_acc(a, c, s_nt, -3.0);
  matmul_nt_acc(a, c, p_nt, -3.0, ExecContext(1, 8));
  EXPECT_EQ(max_abs_diff(s_nt, p_nt), 0.0);
}

TEST(GemmParallel, ShapeMismatchThrowsOnThreadedPath) {
  Matrix a(4, 3), b(5, 6), c(4, 6);
  const ExecContext ctx(1, 4);
  EXPECT_THROW(matmul(a, b, ctx), Error);
  EXPECT_THROW(matmul_tn(a, b, ctx), Error);
  EXPECT_THROW(matmul_nt(a, b, ctx), Error);
  Matrix bad_c(3, 6);
  Matrix b_ok(3, 6);
  EXPECT_THROW(matmul_acc(a, b_ok, bad_c, 1.0, ctx), Error);
}

TEST(GemmParallel, ZeroSizedAndSingleRowEdgeCases) {
  // threads far exceeding the row count must clamp, not crash; empty
  // operands must yield empty/zero results on both paths.
  Rng rng(83);
  for (int threads : {1, 8}) {
    const ExecContext ctx(1, threads);
    const Matrix e0 = matmul(Matrix(0, 5), Matrix(5, 3), ctx);
    EXPECT_EQ(e0.rows(), 0u);
    EXPECT_EQ(e0.cols(), 3u);
    const Matrix e1 = matmul(Matrix(3, 0), Matrix(0, 2), ctx);
    EXPECT_EQ(e1.rows(), 3u);
    EXPECT_EQ(e1.cols(), 2u);
    EXPECT_DOUBLE_EQ(max_abs(e1), 0.0);  // empty K: all-zero accumulators

    const Matrix row = Matrix::randn(1, 9, rng);
    const Matrix w = Matrix::randn(9, 4, rng);
    EXPECT_EQ(max_abs_diff(matmul(row, w, ctx), matmul(row, w)), 0.0);
    const Matrix col = Matrix::randn(9, 1, rng);
    const Matrix tn = matmul_tn(col, Matrix::randn(9, 6, rng), ctx);
    EXPECT_EQ(tn.rows(), 1u);
    const Matrix nt = matmul_nt(row, Matrix::randn(1, 9, rng), ctx);
    EXPECT_EQ(nt.cols(), 1u);
  }
}

// The packed microkernel has two ISA paths (gemm.h): cross-ISA results may
// differ in the last ulps (FMA fuses one rounding, the AVX-512 tile walks a
// different fixed k-grouping), so the vector-vs-scalar comparisons use an
// epsilon; within one ISA thread partitioning must be bitwise neutral.
// Shapes are deliberately odd — none is a multiple of the 6×8 or 8×16
// register tiles, several straddle the 256-deep k panel — so the edge
// kernels and every pack path get exercised.

// The vector tiers this host + build can actually run (kScalar excluded).
std::vector<SimdLevel> vector_levels() {
  std::vector<SimdLevel> out;
  const auto d = static_cast<int>(detected_simd_level());
  if (d >= static_cast<int>(SimdLevel::kAvx2)) out.push_back(SimdLevel::kAvx2);
  if (d >= static_cast<int>(SimdLevel::kAvx512))
    out.push_back(SimdLevel::kAvx512);
  return out;
}

TEST(GemmSimd, DetectionAndOverrideAreConsistent) {
  const SimdLevel detected = detected_simd_level();
  EXPECT_STRNE(simd_level_name(detected), "unknown");
  EXPECT_STRNE(simd_level_name(active_simd_level()), "unknown");
  // set_simd_level clamps each request to what the host/build supports.
  const SimdLevel prev = active_simd_level();
  for (SimdLevel req : {SimdLevel::kScalar, SimdLevel::kAvx2,
                        SimdLevel::kAvx512}) {
    const SimdLevel want =
        static_cast<int>(req) <= static_cast<int>(detected) ? req : detected;
    EXPECT_EQ(set_simd_level(req), want) << simd_level_name(req);
    EXPECT_EQ(active_simd_level(), want) << simd_level_name(req);
  }
  set_simd_level(prev);
  EXPECT_EQ(active_simd_level(), prev);
}

TEST(GemmSimd, ParseSimdLevelRoundTrips) {
  // The PF_SIMD_LEVEL parser: every exposed name round-trips, junk and the
  // empty string are rejected without touching the output.
  for (SimdLevel l : {SimdLevel::kScalar, SimdLevel::kAvx2,
                      SimdLevel::kAvx512}) {
    SimdLevel out = SimdLevel::kScalar;
    EXPECT_TRUE(parse_simd_level(simd_level_name(l), &out));
    EXPECT_EQ(out, l);
  }
  SimdLevel out = SimdLevel::kAvx2;
  EXPECT_FALSE(parse_simd_level("sse9", &out));
  EXPECT_FALSE(parse_simd_level("", &out));
  EXPECT_FALSE(parse_simd_level("AVX2", &out));  // case sensitive
  EXPECT_EQ(out, SimdLevel::kAvx2);
}

TEST(GemmSimd, VectorTiersMatchScalarWithinEpsilonAcrossOddShapes) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector ISA on this host/build";
  struct Shape {
    std::size_t m, k, n;
  };
  // Odd shapes plus AVX-512-tile stressors: n straddling one zmm lane (9),
  // exactly two lanes (16), a full 8×16 tile, and partial m rows against
  // the 8-row tile.
  const Shape shapes[] = {{1, 1, 1},    {2, 3, 4},    {5, 7, 9},
                          {6, 8, 16},   {7, 17, 33},  {13, 67, 29},
                          {97, 43, 71}, {64, 300, 5}, {3, 257, 40},
                          {8, 32, 16},  {9, 19, 17},  {15, 260, 31}};
  Rng rng(101);
  for (const auto& s : shapes) {
    const Matrix a = Matrix::randn(s.m, s.k, rng);
    const Matrix b = Matrix::randn(s.k, s.n, rng);
    const Matrix at = Matrix::randn(s.k, s.m, rng);  // tn: (k×m)ᵀ·(k×n)
    const Matrix bn = Matrix::randn(s.k, s.n, rng);
    const Matrix bt = Matrix::randn(s.n, s.k, rng);  // nt: (m×k)·(n×k)ᵀ
    const double tol = 1e-11 * static_cast<double>(s.k);
    for (int threads : {1, 3}) {
      const ExecContext ctx(1, threads);
      Matrix nn_sc, tn_sc, nt_sc;
      {
        ScopedSimdLevel scalar(SimdLevel::kScalar);
        nn_sc = matmul(a, b, ctx);
        tn_sc = matmul_tn(at, bn, ctx);
        nt_sc = matmul_nt(a, bt, ctx);
      }
      for (SimdLevel level : levels) {
        ScopedSimdLevel guard(level);
        const char* ln = simd_level_name(level);
        EXPECT_LT(max_abs_diff(matmul(a, b, ctx), nn_sc), tol)
            << ln << " nn " << s.m << "x" << s.k << "x" << s.n
            << " t=" << threads;
        EXPECT_LT(max_abs_diff(matmul_tn(at, bn, ctx), tn_sc), tol)
            << ln << " tn " << s.m << "x" << s.k << "x" << s.n
            << " t=" << threads;
        EXPECT_LT(max_abs_diff(matmul_nt(a, bt, ctx), nt_sc), tol)
            << ln << " nt " << s.m << "x" << s.k << "x" << s.n
            << " t=" << threads;
      }
    }
  }
}

TEST(GemmSimd, AccVariantsMatchAcrossIsaWithinEpsilon) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector ISA on this host/build";
  Rng rng(103);
  const Matrix a = Matrix::randn(11, 70, rng);
  const Matrix b = Matrix::randn(70, 13, rng);
  const Matrix dy = Matrix::randn(11, 13, rng);
  const Matrix c_nt = Matrix::randn(13, 70, rng);
  const double alpha = -1.7;
  for (int threads : {1, 4}) {
    const ExecContext ctx(1, threads);
    Matrix acc_sc(11, 13, 0.25), tn_sc(70, 13, -2.0), nt_sc(11, 13, 0.5);
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      matmul_acc(a, b, acc_sc, alpha, ctx);
      matmul_tn_acc(a, dy, tn_sc, alpha, ctx);
      matmul_nt_acc(a, c_nt, nt_sc, alpha, ctx);
    }
    for (SimdLevel level : levels) {
      Matrix acc_v(11, 13, 0.25), tn_v(70, 13, -2.0), nt_v(11, 13, 0.5);
      ScopedSimdLevel guard(level);
      matmul_acc(a, b, acc_v, alpha, ctx);
      matmul_tn_acc(a, dy, tn_v, alpha, ctx);
      matmul_nt_acc(a, c_nt, nt_v, alpha, ctx);
      const char* ln = simd_level_name(level);
      EXPECT_LT(max_abs_diff(acc_sc, acc_v), 1e-9) << ln << " t=" << threads;
      EXPECT_LT(max_abs_diff(tn_sc, tn_v), 1e-9) << ln << " t=" << threads;
      EXPECT_LT(max_abs_diff(nt_sc, nt_v), 1e-9) << ln << " t=" << threads;
    }
  }
}

TEST(GemmSimd, ThreadPartitionIsBitwiseNeutralPerIsa) {
  // Both microkernels promise ascending-k accumulation per element no matter
  // how rows are split, so within one SIMD level every thread count must be
  // bitwise identical — including counts that leave partial 6-row tiles at
  // chunk boundaries.
  Rng rng(107);
  const Matrix a = Matrix::randn(89, 53, rng);
  const Matrix b = Matrix::randn(53, 37, rng);
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel v : vector_levels()) levels.push_back(v);
  for (SimdLevel level : levels) {
    ScopedSimdLevel guard(level);
    const Matrix serial = matmul(a, b);
    for (int threads : {2, 3, 7, 16, 89}) {
      EXPECT_EQ(max_abs_diff(matmul(a, b, ExecContext(1, threads)), serial),
                0.0)
          << simd_level_name(level) << " threads=" << threads;
    }
  }
}

TEST(GemmSimd, ScalarKernelMatchesNaiveReference) {
  // The scalar microkernel is the always-available reference path (and the
  // one PF_FORCE_SCALAR pins); check it against a textbook triple loop.
  ScopedSimdLevel scalar(SimdLevel::kScalar);
  Rng rng(109);
  const Matrix a = Matrix::randn(19, 31, rng);
  const Matrix b = Matrix::randn(31, 23, rng);
  Matrix ref(19, 23, 0.0);
  for (std::size_t i = 0; i < 19; ++i)
    for (std::size_t k = 0; k < 31; ++k)
      for (std::size_t j = 0; j < 23; ++j) ref(i, j) += a(i, k) * b(k, j);
  EXPECT_LT(max_abs_diff(matmul(a, b), ref), 1e-12);
}

// The exp kernel (exp_span.h) is one loop compiled per tier like the GEMM
// microkernels, but unlike them every tier must return the same bits; it
// must also stay within 2 ulp of the exact value and keep its stated
// underflow policy.

// |got − want| in units of the spacing of doubles just above |want|
// (2^−1074 for subnormals).
double ulps(double got, long double want) {
  const double w = std::fabs(static_cast<double>(want));
  const double spacing =
      std::nextafter(w, std::numeric_limits<double>::infinity()) - w;
  return static_cast<double>(
      std::fabs(static_cast<long double>(got) - want) / spacing);
}

// Bitwise equality that lets any two NaNs match: the tiers promise the same
// value, not the same NaN payload.
bool same_bits_or_both_nan(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ExpSpan, WithinTwoUlpOfLongDoubleExpOnDenseSweeps) {
  // [−708.4, 709.78] runs from just below 2^−1022 to just below overflow;
  // [−1, 1] covers the reduced argument densely.
  std::vector<double> x;
  const std::size_t n = 400001;
  for (std::size_t i = 0; i < n; ++i)
    x.push_back(-708.4 + (709.78 + 708.4) * static_cast<double>(i) /
                             static_cast<double>(n - 1));
  for (std::size_t i = 0; i < n; ++i)
    x.push_back(-1.0 + 2.0 * static_cast<double>(i) /
                           static_cast<double>(n - 1));
  std::vector<double> y(x.size());
  for (SimdLevel level : host_simd_levels()) {
    ScopedSimdLevel guard(level);
    exp_span(x.data(), y.data(), x.size());
    double worst = 0.0, worst_x = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double u = ulps(y[i], expl(static_cast<long double>(x[i])));
      if (u > worst) {
        worst = u;
        worst_x = x[i];
      }
    }
    EXPECT_LT(worst, 2.0) << simd_level_name(level) << " at x=" << worst_x;
  }
}

TEST(ExpSpan, SpecialValuesAreExact) {
  const double inf = std::numeric_limits<double>::infinity();
  const double x[] = {0.0,    -0.0,   -inf,   inf,     std::nan(""),
                      709.78, 709.79, 1e-300, -1e-300, -1e4};
  constexpr std::size_t n = sizeof x / sizeof x[0];
  for (SimdLevel level : host_simd_levels()) {
    ScopedSimdLevel guard(level);
    const char* ln = simd_level_name(level);
    double y[n];
    exp_span(x, y, n);
    EXPECT_EQ(y[0], 1.0) << ln;
    EXPECT_EQ(y[1], 1.0) << ln;
    EXPECT_EQ(y[2], 0.0) << ln;
    EXPECT_FALSE(std::signbit(y[2])) << ln << ": exp(-inf) must be +0";
    EXPECT_EQ(y[3], inf) << ln;
    EXPECT_TRUE(std::isnan(y[4])) << ln;
    EXPECT_TRUE(std::isfinite(y[5])) << ln << ": exp(709.78) = " << y[5];
    EXPECT_GT(y[5], 1.79e308) << ln;
    EXPECT_EQ(y[6], inf) << ln;
    EXPECT_EQ(y[7], 1.0) << ln;
    EXPECT_EQ(y[8], 1.0) << ln;
    EXPECT_EQ(y[9], 0.0) << ln;
    EXPECT_FALSE(std::signbit(y[9])) << ln;
  }
}

TEST(ExpSpan, UnderflowIsGradual) {
  // exp_span.h's policy below 2^−1022: the result is the subnormal within
  // one step (2^−1074) of the exact value — never flushed to zero while a
  // subnormal can represent it — and +0 once the exact value rounds there.
  const double step = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();  // 2^−1022
  std::vector<double> x;
  for (int i = 0; i <= 40000; ++i) x.push_back(-745.2 + 36.8 * i / 40000.0);
  std::vector<double> y(x.size());
  for (SimdLevel level : host_simd_levels()) {
    ScopedSimdLevel guard(level);
    const char* ln = simd_level_name(level);
    exp_span(x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const long double want = expl(static_cast<long double>(x[i]));
      ASSERT_LE(std::fabs(static_cast<long double>(y[i]) - want), step)
          << ln << " x=" << x[i];
      if (want >= step) {
        ASSERT_GT(y[i], 0.0) << ln << " x=" << x[i];
      }
    }
    const double below[] = {-720.0, -744.0, -745.2, -746.0, -1000.0};
    double out[5];
    exp_span(below, out, 5);
    EXPECT_GT(out[0], 0.0) << ln;
    EXPECT_LT(out[0], tiny) << ln << ": exp(-720) is subnormal";
    EXPECT_EQ(out[1], 2 * step) << ln << ": exp(-744) = 1.57 steps";
    for (int i = 2; i < 5; ++i) {
      EXPECT_EQ(out[i], 0.0) << ln << " x=" << below[i];
      EXPECT_FALSE(std::signbit(out[i])) << ln << " x=" << below[i];
    }
  }
}

TEST(ExpSpan, EveryTierReturnsTheSameBitsInPlaceOrNot) {
  // Lengths around every vector width (2, 4, 8 doubles) so each tier's
  // main loop and remainder both run, on values spanning the whole range
  // plus the special inputs. The long span is there because a subtle tier
  // defect is rare: a build that fused the AVX-512 tier's multiply-adds
  // changed fewer than 1 result in 1,000.
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, inf, -inf, std::nan(""), 709.79,
                             -745.2, -720.0, 709.78, 1e-300};
  Rng rng(113);
  const auto levels = host_simd_levels();
  for (std::size_t n :
       {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100, 257, 100003}) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
      x[i] = i % 7 == 3 ? specials[(i / 7) % 10]
                        : -750.0 + 1465.0 * rng.uniform();
    std::vector<double> ref(n);
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      exp_span(x.data(), ref.data(), n);
    }
    for (SimdLevel level : levels) {
      ScopedSimdLevel guard(level);
      std::vector<double> y(n), in_place = x;
      exp_span(x.data(), y.data(), n);
      exp_span(in_place.data(), in_place.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits_or_both_nan(y[i], ref[i]))
            << simd_level_name(level) << " n=" << n << " x=" << x[i] << ": "
            << y[i] << " vs scalar " << ref[i];
        ASSERT_TRUE(same_bits_or_both_nan(in_place[i], ref[i]))
            << simd_level_name(level) << " in place, n=" << n
            << " x=" << x[i];
      }
    }
  }
}

TEST(GemmSyrk, BitwiseEqualsTnProductAndIsExactlySymmetric) {
  // syrk_tn_acc runs only the tiles touching the lower triangle and mirrors
  // the rest, yet must reproduce matmul_tn_acc(a, a, ...) bit for bit on
  // every tier, thread count and alpha — across the 256-deep k panel, at
  // tile edges, and accumulating onto its own earlier results.
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel v : vector_levels()) levels.push_back(v);
  Rng rng(139);
  for (std::size_t d : {1u, 7u, 8u, 9u, 16u, 17u, 63u, 64u, 65u, 128u, 129u}) {
    for (std::size_t rows : {1u, 255u, 256u, 257u, 600u}) {
      const Matrix a = Matrix::randn(rows, d, rng);
      const double r = static_cast<double>(rows);
      for (SimdLevel level : levels) {
        ScopedSimdLevel guard(level);
        for (int threads : {1, 2, 3}) {
          const ExecContext ctx(1, threads);
          for (double alpha : {1.0, 1.0 / r, r}) {
            Matrix want(d, d, 0.0), got(d, d, 0.0);
            for (int rep = 0; rep < 3; ++rep) {
              matmul_tn_acc(a, a, want, alpha, ctx);
              syrk_tn_acc(a, got, alpha, ctx);
              ASSERT_TRUE(same_bits(got, want))
                  << simd_level_name(level) << " d=" << d << " rows=" << rows
                  << " threads=" << threads << " alpha=" << alpha
                  << " accumulation " << rep;
            }
            for (std::size_t i = 0; i < d; ++i)
              for (std::size_t j = i + 1; j < d; ++j)
                ASSERT_EQ(std::memcmp(&got(i, j), &got(j, i), sizeof(double)),
                          0)
                    << simd_level_name(level) << " d=" << d
                    << " rows=" << rows << " (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(GemmSyrk, ShapeMismatchThrows) {
  Rng rng(149);
  const Matrix a = Matrix::randn(5, 4, rng);
  Matrix c(5, 5, 0.0);
  EXPECT_THROW(syrk_tn_acc(a, c, 1.0), Error);
}

// GemmView: the accumulating products read and write through strided views.
enum class ProductKind { kNn, kTn, kNt, kSyrk };

const char* kind_name(ProductKind kind) {
  switch (kind) {
    case ProductKind::kNn: return "nn";
    case ProductKind::kTn: return "tn";
    case ProductKind::kNt: return "nt";
    case ProductKind::kSyrk: return "syrk";
  }
  return "?";
}

// Contiguous operands of one product kind with output m×n and reduction
// depth k; syrk's output is m×m and starts at zero (it must be symmetric).
struct ProductOperands {
  Matrix a, b, c;
};

ProductOperands make_operands(ProductKind kind, std::size_t m, std::size_t k,
                              std::size_t n, Rng& rng) {
  switch (kind) {
    case ProductKind::kNn:
      return {Matrix::randn(m, k, rng), Matrix::randn(k, n, rng),
              Matrix::randn(m, n, rng)};
    case ProductKind::kTn:
      return {Matrix::randn(k, m, rng), Matrix::randn(k, n, rng),
              Matrix::randn(m, n, rng)};
    case ProductKind::kNt:
      return {Matrix::randn(m, k, rng), Matrix::randn(n, k, rng),
              Matrix::randn(m, n, rng)};
    case ProductKind::kSyrk: {
      Matrix a = Matrix::randn(k, m, rng);
      return {a, a, Matrix(m, m, 0.0)};
    }
  }
  return {};
}

// The product on views; syrk's view form is the tn product of a with itself.
void product_on_views(ProductKind kind, ConstMatView a, ConstMatView b,
                      MatView c, double alpha, const ExecContext& ctx) {
  switch (kind) {
    case ProductKind::kNn: matmul_acc(a, b, c, alpha, ctx); return;
    case ProductKind::kTn: matmul_tn_acc(a, b, c, alpha, ctx); return;
    case ProductKind::kNt: matmul_nt_acc(a, b, c, alpha, ctx); return;
    case ProductKind::kSyrk: matmul_tn_acc(a, a, c, alpha, ctx); return;
  }
}

// The product on contiguous matrices; syrk through syrk_tn_acc.
void product_on_copies(ProductKind kind, const Matrix& a, const Matrix& b,
                       Matrix& c, double alpha, const ExecContext& ctx) {
  if (kind == ProductKind::kSyrk)
    syrk_tn_acc(a, c, alpha, ctx);
  else
    product_on_views(kind, a, b, c, alpha, ctx);
}

// Around an input block: a NaN with a payload no arithmetic produces, so a
// read outside the block poisons C and memcmp tells it apart.
double input_sentinel() {
  return std::bit_cast<double>(0x7ff8'dead'beef'0001ULL);
}

// Around an output block: −0.0. The kernels only ever add to C, and a NaN
// would swallow any sum; −0.0 changes bits under every write of a product
// with alpha > 0, even one of +0.0 from zero-padded panel lanes.
constexpr double kOutputSentinel = -0.0;

// src placed at (r0, c0) inside a larger matrix of `fill`: pad_r rows and
// pad_c columns more than src, so a view of the block has ld > cols.
Matrix embed(const Matrix& src, std::size_t r0, std::size_t c0,
             std::size_t pad_r, std::size_t pad_c, double fill) {
  Matrix out(src.rows() + pad_r, src.cols() + pad_c, fill);
  for (std::size_t r = 0; r < src.rows(); ++r)
    std::memcpy(out.row(r0 + r) + c0, src.row(r), src.cols() * sizeof(double));
  return out;
}

// Runs `check(level, threads)` on every host tier × gemm_threads {1, 2, 3}.
template <typename Check>
void for_each_tier_and_thread_count(const Check& check) {
  for (SimdLevel level : host_simd_levels()) {
    ScopedSimdLevel guard(level);
    for (int threads : {1, 2, 3}) check(level, threads);
  }
}

TEST(GemmView, ProductsOnViewsEqualProductsOnContiguousCopies) {
  // Every operand is a block at a non-zero offset with ld > cols. n 19 and
  // 37 leave a partial last B panel on the 8- and 16-wide tiers; k 300
  // crosses the 256-deep k panel. The block of C must get the bits the
  // contiguous product gets, and every sentinel around it must survive.
  struct Dims {
    std::size_t m, k, n;
  };
  Rng rng(163);
  for_each_tier_and_thread_count([&](SimdLevel level, int threads) {
    const ExecContext ctx(1, threads);
    for (ProductKind kind : {ProductKind::kNn, ProductKind::kTn,
                             ProductKind::kNt, ProductKind::kSyrk}) {
      for (const Dims& d : {Dims{1, 1, 1}, Dims{7, 5, 19}, Dims{13, 300, 37}}) {
        SCOPED_TRACE(std::string(simd_level_name(level)) + " " +
                     kind_name(kind) + " threads=" + std::to_string(threads) +
                     " m=" + std::to_string(d.m) + " k=" + std::to_string(d.k) +
                     " n=" + std::to_string(d.n));
        ProductOperands ops = make_operands(kind, d.m, d.k, d.n, rng);
        const Matrix pa = embed(ops.a, 2, 3, 3, 5, input_sentinel());
        const Matrix pb = embed(ops.b, 1, 4, 4, 6, input_sentinel());
        Matrix pc = embed(ops.c, 2, 1, 2, 7, kOutputSentinel);
        product_on_views(
            kind, ConstMatView(pa, 2, 3, ops.a.rows(), ops.a.cols()),
            ConstMatView(pb, 1, 4, ops.b.rows(), ops.b.cols()),
            MatView(pc, 2, 1, ops.c.rows(), ops.c.cols()), 0.75, ctx);
        product_on_copies(kind, ops.a, ops.b, ops.c, 0.75, ctx);
        const Matrix want = embed(ops.c, 2, 1, 2, 7, kOutputSentinel);
        ASSERT_TRUE(same_bits(pc, want));
      }
    }
  });
}

TEST(GemmView, InPlaceReadsOfAStayInsideItsView) {
  // A is the bottom-right block of its Matrix, so the view's last element is
  // the allocation's last: under AddressSanitizer any read past the view
  // leaves the heap block. m 7 and 13 leave partial row tiles on the 6- and
  // 8-row tiers; k 300 crosses the 256-deep k panel.
  Rng rng(169);
  for_each_tier_and_thread_count([&](SimdLevel level, int threads) {
    const ExecContext ctx(1, threads);
    for (ProductKind kind : {ProductKind::kNn, ProductKind::kNt})
      for (std::size_t m : {1u, 7u, 13u})
        for (std::size_t k : {5u, 300u}) {
          SCOPED_TRACE(std::string(simd_level_name(level)) + " " +
                       kind_name(kind) + " threads=" +
                       std::to_string(threads) + " m=" + std::to_string(m) +
                       " k=" + std::to_string(k));
          ProductOperands ops = make_operands(kind, m, k, 19, rng);
          const Matrix pa = embed(ops.a, 2, 3, 2, 3, input_sentinel());
          Matrix c = ops.c;
          product_on_views(kind, ConstMatView(pa, 2, 3, m, k), ops.b, c, 0.75,
                           ctx);
          product_on_copies(kind, ops.a, ops.b, ops.c, 0.75, ctx);
          ASSERT_TRUE(same_bits(c, ops.c));
        }
  });
}

TEST(GemmView, OverwriteEqualsZeroFillThenAccumulate) {
  // An _set product writes alpha·Op(A)·Op(B) without reading C; its bytes
  // must equal the _acc product's into a zero-filled C. C starts as NaN, so
  // a read of C shows. Rows 0 and 3 of Op(A) hold +1, −1 pairs against
  // equal row pairs of Op(B) (and 0 against an odd k's last row), so their
  // chains cancel to an exact +0.0 on every tier; under alpha −1 an
  // epilogue that stored alpha·acc without adding it to +0.0 would write
  // −0.0. k 0 must write +0.0, and k 300 crosses the 256-deep k block,
  // whose later blocks accumulate onto what the first one wrote.
  Rng rng(171);
  const auto set_product = [](ProductKind kind, const Matrix& a,
                              const Matrix& b, Matrix& c, double alpha,
                              const ExecContext& ctx) {
    switch (kind) {
      case ProductKind::kNn: matmul_set(a, b, c, alpha, ctx); return;
      case ProductKind::kTn: matmul_tn_set(a, b, c, alpha, ctx); return;
      default: matmul_nt_set(a, b, c, alpha, ctx); return;
    }
  };
  for_each_tier_and_thread_count([&](SimdLevel level, int threads) {
    const ExecContext ctx(1, threads);
    for (ProductKind kind :
         {ProductKind::kNn, ProductKind::kNt, ProductKind::kTn})
      for (std::size_t m : {1u, 7u, 13u, 32u})
        for (std::size_t k : {0u, 5u, 300u})
          for (std::size_t n : {3u, 16u, 19u}) {
            Matrix op_a = Matrix::randn(m, k, rng);
            Matrix op_b = Matrix::randn(k, n, rng);
            for (std::size_t kk = 1; kk < k; kk += 2)
              std::memcpy(op_b.row(kk), op_b.row(kk - 1), n * sizeof(double));
            for (std::size_t i : {0u, 3u}) {
              if (i >= m) continue;
              for (std::size_t kk = 0; kk < k; ++kk)
                op_a(i, kk) = kk % 2 == 1 ? -1.0 : kk + 1 < k ? 1.0 : 0.0;
            }
            const bool tn = kind == ProductKind::kTn;
            const bool nt = kind == ProductKind::kNt;
            const Matrix a = tn ? op_a.transposed() : op_a;
            const Matrix b = nt ? op_b.transposed() : op_b;
            for (double alpha : {1.0, 0.25, -1.0}) {
              SCOPED_TRACE(std::string(simd_level_name(level)) + " " +
                           kind_name(kind) +
                           " threads=" + std::to_string(threads) +
                           " m=" + std::to_string(m) +
                           " k=" + std::to_string(k) +
                           " n=" + std::to_string(n) +
                           " alpha=" + std::to_string(alpha));
              Matrix got(m, n, std::numeric_limits<double>::quiet_NaN());
              set_product(kind, a, b, got, alpha, ctx);
              Matrix want(m, n, 0.0);
              product_on_views(kind, a, b, want, alpha, ctx);
              ASSERT_TRUE(same_bits(got, want));
            }
          }
  });
}

TEST(GemmView, GuardBandAroundOutputViewStaysUntouched) {
  // An output block in the middle of a matrix of sentinels, one sentinel
  // wide on every side (and past the row end, where ld > cols): only the
  // block may change. 21 columns end in a partial panel on every tier.
  Rng rng(165);
  for_each_tier_and_thread_count([&](SimdLevel level, int threads) {
    const ExecContext ctx(1, threads);
    for (ProductKind kind : {ProductKind::kNn, ProductKind::kTn,
                             ProductKind::kNt, ProductKind::kSyrk}) {
      ProductOperands ops = make_operands(kind, 11, 9, 21, rng);
      const std::size_t rows = ops.c.rows(), cols = ops.c.cols();
      Matrix guarded(rows + 2, cols + 2, kOutputSentinel);
      product_on_views(kind, ops.a, ops.b, MatView(guarded, 1, 1, rows, cols),
                       1.5, ctx);
      for (std::size_t r = 0; r < rows + 2; ++r)
        for (std::size_t c = 0; c < cols + 2; ++c) {
          const bool inside = r >= 1 && r <= rows && c >= 1 && c <= cols;
          if (inside) continue;
          ASSERT_EQ(std::memcmp(&guarded(r, c), &kOutputSentinel,
                                sizeof(double)),
                    0)
              << simd_level_name(level) << " " << kind_name(kind)
              << " threads=" << threads << " wrote (" << r << "," << c << ")";
        }
    }
  });
}

TEST(GemmView, StalePackContentsNeverReachC) {
  // Each thread packs B into one grow-only buffer that every product shares.
  // Fill it with NaN and ±Inf through a larger product, then run products
  // whose 5 columns fill part of one panel: each must give the bits it gives
  // on a fresh thread, whose buffer is still empty, as in a fresh process.
  Rng rng(167);
  const Matrix a = Matrix::randn(9, 13, rng);
  const Matrix a_t = Matrix::randn(13, 9, rng);
  const Matrix b = Matrix::randn(13, 5, rng);
  const Matrix b_t = Matrix::randn(5, 13, rng);
  const Matrix poison_a = Matrix::randn(11, 300, rng);
  Matrix poison_b(300, 70);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < poison_b.size(); ++i)
    poison_b.data()[i] = specials[i % 3];
  for_each_tier_and_thread_count([&](SimdLevel level, int threads) {
    const ExecContext ctx(1, threads);
    const auto run = [&] {
      std::vector<Matrix> out(3, Matrix(9, 5, 0.25));
      matmul_acc(a, b, out[0], 1.0, ctx);
      matmul_tn_acc(a_t, b, out[1], 1.0, ctx);
      matmul_nt_acc(a, b_t, out[2], 1.0, ctx);
      return out;
    };
    std::vector<Matrix> fresh;
    std::thread([&] { fresh = run(); }).join();
    Matrix junk(11, 70, 0.0);
    matmul_acc(poison_a, poison_b, junk, 1.0, ctx);
    const std::vector<Matrix> got = run();
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(same_bits(got[i], fresh[i]))
          << simd_level_name(level) << " threads=" << threads << " product "
          << i;
  });
}

TEST(GemmView, OverlappingOutputAndOutOfRangeViewsThrow) {
  Matrix m(8, 8, 1.0);
  const Matrix b(4, 4, 1.0);
  // C overlapping A, or B, throws — for whole matrices and for blocks.
  EXPECT_THROW(matmul_acc(m, m, m), Error);
  EXPECT_THROW(matmul_tn_acc(m, m, m), Error);
  EXPECT_THROW(matmul_nt_acc(m, m, m), Error);
  EXPECT_THROW(matmul_acc(ConstMatView(m, 0, 0, 4, 4), b,
                          MatView(m, 2, 2, 4, 4)),
               Error);
  EXPECT_THROW(matmul_acc(b, ConstMatView(m, 3, 3, 4, 4),
                          MatView(m, 4, 4, 4, 4)),
               Error);
  // The check is on spans: side-by-side column blocks of the same rows share
  // no element, but their spans interleave, so that throws too.
  EXPECT_THROW(matmul_acc(ConstMatView(m, 0, 0, 4, 4), b,
                          MatView(m, 0, 4, 4, 4)),
               Error);
  // Disjoint row blocks of one matrix are fine.
  matmul_acc(ConstMatView(m, 0, 0, 4, 4), b, MatView(m, 4, 0, 4, 4));
  EXPECT_EQ(m(4, 0), 5.0);
  // A view must lie inside its matrix.
  EXPECT_THROW(ConstMatView(m, 5, 0, 4, 4), Error);
  EXPECT_THROW(ConstMatView(m, 0, 6, 2, 3), Error);
  EXPECT_THROW(MatView(m, 9, 0, 0, 0), Error);
  EXPECT_THROW(MatView(m, 0, 0, 8, 9), Error);
  EXPECT_NO_THROW(ConstMatView(m, 8, 8, 0, 0));
}

TEST(Gemm, Matvec) {
  const Matrix a = from_rows({{1, 2}, {3, 4}, {5, 6}});
  const auto y = matvec(a, {1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(Cholesky, ReconstructsInput) {
  Rng rng(37);
  for (std::size_t n : {1u, 2u, 5u, 16u, 33u}) {
    const Matrix m = random_spd(n, rng);
    const Matrix l = cholesky(m);
    EXPECT_LT(max_abs_diff(matmul_nt(l, l), m), 1e-10) << "n=" << n;
  }
}

TEST(Cholesky, LowerTriangular) {
  Rng rng(41);
  const Matrix l = cholesky(random_spd(6, rng));
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t c = r + 1; c < 6; ++c) EXPECT_DOUBLE_EQ(l(r, c), 0.0);
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  Matrix m = identity(3);
  m(2, 2) = -1.0;
  EXPECT_FALSE(try_cholesky(m).has_value());
  EXPECT_THROW(cholesky(m), Error);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  Rng rng(43);
  const Matrix m = random_spd(12, rng);
  std::vector<double> x_true(12);
  for (auto& v : x_true) v = rng.normal();
  const auto b = matvec(m, x_true);
  const auto x = cholesky_solve(cholesky(m), b);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, InverseTimesInputIsIdentity) {
  Rng rng(47);
  for (std::size_t n : {2u, 8u, 24u}) {
    const Matrix m = random_spd(n, rng);
    const Matrix inv = cholesky_inverse(cholesky(m));
    EXPECT_LT(max_abs_diff(matmul(inv, m), identity(n)), 1e-8)
        << "n=" << n;
  }
}

TEST(Cholesky, SpdInverseAppliesDamping) {
  // (I + damping·I)⁻¹ = 1/(1+damping)·I.
  const Matrix inv = spd_inverse(identity(4), 1.0);
  Matrix half = identity(4);
  half *= 0.5;
  EXPECT_LT(max_abs_diff(inv, half), 1e-12);
}

// Unblocked reference factorization (the seed algorithm) for pinning the
// blocked right-looking path.
Matrix reference_cholesky(const Matrix& m) {
  const std::size_t n = m.rows();
  Matrix l(n, n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = m(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    EXPECT_GT(diag, 0.0);
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = m(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / ljj;
    }
  }
  return l;
}

TEST(CholeskyBlocked, MatchesUnblockedReferenceAcrossPanelBoundaries) {
  // Sizes straddle the 64-wide panel: below, exactly at, one past, and
  // multiple panels with a partial tail.
  Rng rng(113);
  for (std::size_t n : {48u, 64u, 65u, 96u, 130u}) {
    const Matrix m = random_spd(n, rng);
    const Matrix l = cholesky(m);
    const Matrix ref = reference_cholesky(m);
    // Different summation grouping → epsilon, not equality.
    EXPECT_LT(max_abs_diff(l, ref), 1e-9) << "n=" << n;
    EXPECT_LT(max_abs_diff(matmul_nt(l, l), m), 1e-9) << "n=" << n;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = r + 1; c < n; ++c)
        ASSERT_EQ(l(r, c), 0.0) << "upper triangle must be cleared";
  }
}

TEST(CholeskyBlocked, ThreadCountIsBitwiseNeutral) {
  // Panel solves and trailing updates are row-partitioned with a fixed
  // per-element ascending-k sum, so every thread count must reproduce the
  // serial factorization (and inverse) exactly.
  Rng rng(127);
  const Matrix m = random_spd(130, rng);
  const Matrix l1 = cholesky(m);
  const Matrix inv1 = cholesky_inverse(l1);
  const Matrix spd1 = spd_inverse(m, 0.3);
  for (int threads : {2, 3, 8}) {
    const ExecContext ctx(1, threads);
    EXPECT_EQ(max_abs_diff(cholesky(m, ctx), l1), 0.0)
        << "cholesky threads=" << threads;
    EXPECT_EQ(max_abs_diff(cholesky_inverse(l1, ctx), inv1), 0.0)
        << "cholesky_inverse threads=" << threads;
    EXPECT_EQ(max_abs_diff(spd_inverse(m, 0.3, ctx), spd1), 0.0)
        << "spd_inverse threads=" << threads;
  }
}

// The per-column inverse cholesky_inverse replaced: cholesky_solve per unit
// column, then the same symmetrize.
Matrix reference_cholesky_inverse(const Matrix& l) {
  const std::size_t n = l.rows();
  Matrix inv(n, n, 0.0);
  std::vector<double> unit(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    const std::vector<double> col = cholesky_solve(l, unit);
    unit[j] = 0.0;
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = 0.5 * (inv(i, j) + inv(j, i));
      inv(i, j) = v;
      inv(j, i) = v;
    }
  return inv;
}

TEST(CholeskyBlocked, InverseBitwiseEqualsPerColumnReference) {
  // Sizes straddle the 32-column pass and the 64-wide factorization panel.
  Rng rng(137);
  for (std::size_t n :
       {1u, 2u, 31u, 32u, 33u, 63u, 64u, 65u, 96u, 128u, 129u, 200u}) {
    const Matrix m = random_spd(n, rng);
    const Matrix l = cholesky(m);
    const Matrix ref = reference_cholesky_inverse(l);
    Matrix damped = m;
    add_diagonal(damped, 0.3);
    const Matrix ref_damped = reference_cholesky_inverse(cholesky(damped));
    for (int threads : {1, 2, 3, 8}) {
      const ExecContext ctx(1, threads);
      EXPECT_TRUE(same_bits(cholesky_inverse(l, ctx), ref))
          << "cholesky_inverse n=" << n << " threads=" << threads;
      EXPECT_TRUE(same_bits(spd_inverse(m, 0.3, ctx), ref_damped))
          << "spd_inverse n=" << n << " threads=" << threads;
    }
  }
}

TEST(CholeskyBlocked, ParallelInverseTimesInputIsIdentity) {
  Rng rng(131);
  const Matrix m = random_spd(96, rng);
  const Matrix inv = spd_inverse(m, 0.0, ExecContext(1, 4));
  EXPECT_LT(max_abs_diff(matmul(inv, m), identity(96)), 1e-7);
}

TEST(CholeskyBlocked, RejectsSpdViolationInLaterPanel) {
  // The indefinite pivot sits in the second 64-wide panel, so the failure is
  // only reachable through the blocked path's trailing updates.
  Matrix m = identity(100);
  m(80, 80) = -2.0;
  EXPECT_FALSE(try_cholesky(m).has_value());
  EXPECT_THROW(cholesky(m), Error);
  EXPECT_THROW(cholesky(m, ExecContext(1, 4)), Error);
  EXPECT_THROW(spd_inverse(m, 0.0, ExecContext(1, 4)), Error);
  // Damping large enough to cross back into PD must succeed again.
  EXPECT_NO_THROW(spd_inverse(m, 4.0, ExecContext(1, 2)));
}

TEST(Kron, MatchesDefinitionOnSmallExample) {
  const Matrix a = from_rows({{1, 2}, {3, 4}});
  const Matrix b = from_rows({{0, 5}, {6, 7}});
  const Matrix k = kron(a, b);
  ASSERT_EQ(k.rows(), 4u);
  EXPECT_DOUBLE_EQ(k(0, 1), 5.0);    // a00*b01
  EXPECT_DOUBLE_EQ(k(1, 0), 6.0);    // a00*b10
  EXPECT_DOUBLE_EQ(k(3, 2), 4 * 6);  // a11*b10
  EXPECT_DOUBLE_EQ(k(2, 3), 4 * 5);  // a11*b01
}

TEST(Kron, MixedProductProperty) {
  // (A⊗B)(C⊗D) = (AC)⊗(BD).
  Rng rng(53);
  const Matrix a = Matrix::randn(3, 3, rng), b = Matrix::randn(2, 2, rng);
  const Matrix c = Matrix::randn(3, 3, rng), d = Matrix::randn(2, 2, rng);
  const Matrix lhs = matmul(kron(a, b), kron(c, d));
  const Matrix rhs = kron(matmul(a, c), matmul(b, d));
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-10);
}

TEST(Kron, InverseOfKronIsKronOfInverses) {
  // The identity that makes K-FAC tractable.
  Rng rng(59);
  const Matrix a = random_spd(3, rng);
  const Matrix b = random_spd(4, rng);
  const Matrix lhs = spd_inverse(kron(a, b));
  const Matrix rhs = kron(spd_inverse(a), spd_inverse(b));
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-7);
}

TEST(Kron, KronMatvecEqualsMaterializedProduct) {
  // (A ⊗ B) vec(X) = vec(B X Aᵀ).
  Rng rng(61);
  const Matrix a = Matrix::randn(3, 3, rng);
  const Matrix b = Matrix::randn(4, 4, rng);
  const Matrix x = Matrix::randn(4, 3, rng);
  const auto fast = kron_matvec(a, b, x);
  const auto slow = matvec(kron(a, b), vec_cols(x));
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast[i], slow[i], 1e-10);
}

TEST(Kron, VecUnvecRoundTrip) {
  Rng rng(67);
  const Matrix x = Matrix::randn(5, 7, rng);
  const Matrix back = unvec_cols(vec_cols(x), 5, 7);
  EXPECT_LT(max_abs_diff(x, back), 0.0 + 1e-300);
}

// Property sweep: Cholesky-based preconditioning B⁻¹ G A⁻¹ equals the
// materialized (A ⊗ B)⁻¹ g across shapes — the core K-FAC computation.
class KfacIdentityTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(KfacIdentityTest, PreconditionMatchesMaterializedFisherInverse) {
  const auto [din, dout] = GetParam();
  Rng rng(1000 + din * 31 + dout);
  const Matrix a = random_spd(din, rng);   // A_l (input factor)
  const Matrix b = random_spd(dout, rng);  // B_l (output factor)
  const Matrix g = Matrix::randn(dout, din, rng);  // gradient G_l

  // Fast path: B⁻¹ G A⁻¹.
  const Matrix precond = matmul(matmul(spd_inverse(b), g), spd_inverse(a));
  // Slow path: materialize (A ⊗ B) and solve.
  const Matrix fisher = kron(a, b);
  const auto flat = cholesky_solve(cholesky(fisher), vec_cols(g));
  const Matrix slow = unvec_cols(flat, dout, din);
  EXPECT_LT(max_abs_diff(precond, slow), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KfacIdentityTest,
    ::testing::Values(std::pair<std::size_t, std::size_t>{2, 3},
                      std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{6, 2},
                      std::pair<std::size_t, std::size_t>{8, 5},
                      std::pair<std::size_t, std::size_t>{3, 9}));

}  // namespace
}  // namespace pf
