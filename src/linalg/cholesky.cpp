#include "src/linalg/cholesky.h"

#include <algorithm>
#include <cmath>

namespace pf {

namespace {

// Panel width for the right-looking blocked factorization. Matrices up to
// kNB take the unblocked path in one shot (identical to the seed algorithm).
constexpr std::size_t kNB = 64;

// Unblocked lower-Cholesky of the jb×jb diagonal block at (j0, j0), assuming
// trailing updates for columns < j0 were already applied. Returns false when
// the block is not (numerically) positive definite.
bool factor_diag_block(Matrix& w, std::size_t j0, std::size_t jb) {
  for (std::size_t j = j0; j < j0 + jb; ++j) {
    const double* wrow_j = w.row(j);
    double diag = w(j, j);
    for (std::size_t k = j0; k < j; ++k) diag -= wrow_j[k] * wrow_j[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    w(j, j) = ljj;
    for (std::size_t i = j + 1; i < j0 + jb; ++i) {
      double s = w(i, j);
      const double* wrow_i = w.row(i);
      for (std::size_t k = j0; k < j; ++k) s -= wrow_i[k] * wrow_j[k];
      w(i, j) = s / ljj;
    }
  }
  return true;
}

}  // namespace

// Row blocks run in ctx.gemm_threads() chunks on ctx.pool(), so a pipeline
// stage's factorizations stay on the runtime's own worker pool.
std::optional<Matrix> try_cholesky(const Matrix& m, const ExecContext& ctx) {
  PF_CHECK(m.rows() == m.cols()) << "cholesky needs a square matrix";
  const std::size_t n = m.rows();
  const auto n_threads = static_cast<std::size_t>(ctx.gemm_threads());
  ThreadPool& tp = ctx.pool();
  Matrix w = m;
  // Right-looking blocked algorithm: factor a kNB-wide diagonal block, solve
  // the panel below it, then rank-kNB-downdate the trailing matrix. The two
  // O(n²·kNB) phases parallelize over rows; each element's update is a fixed
  // ascending-k sum, so results are bitwise identical for any thread count.
  for (std::size_t j0 = 0; j0 < n; j0 += kNB) {
    const std::size_t jb = std::min(kNB, n - j0);
    if (!factor_diag_block(w, j0, jb)) return std::nullopt;
    const std::size_t row0 = j0 + jb;
    const std::size_t rest = n - row0;
    if (rest == 0) break;
    // Panel solve: L21 = A21·L11⁻ᵀ, one forward substitution per row. Every
    // row costs the same, so even row chunks balance.
    tp.parallel_for(
        rest, n_threads, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = row0 + b; i < row0 + e; ++i) {
            double* wrow_i = w.row(i);
            for (std::size_t c = j0; c < row0; ++c) {
              const double* wrow_c = w.row(c);
              double s = wrow_i[c];
              for (std::size_t k = j0; k < c; ++k) s -= wrow_i[k] * wrow_c[k];
              wrow_i[c] = s / wrow_c[c];
            }
          }
        });
    // Trailing update (lower triangle only): A22 -= L21·L21ᵀ. Row i touches
    // i−row0+1 columns, so equal row counts would load the last chunk ~2× the
    // average; instead chunk boundaries follow sqrt so each chunk covers an
    // equal share of the triangle. Per-row sums are unchanged — the balanced
    // partition is bitwise identical to any other.
    auto update_rows = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = row0 + b; i < row0 + e; ++i) {
        double* wrow_i = w.row(i);
        for (std::size_t j = row0; j <= i; ++j) {
          const double* wrow_j = w.row(j);
          double s = 0.0;
          for (std::size_t k = j0; k < row0; ++k) s += wrow_i[k] * wrow_j[k];
          wrow_i[j] -= s;
        }
      }
    };
    const std::size_t n_chunks = std::min(n_threads, rest);
    if (n_chunks <= 1) {
      update_rows(0, rest);
    } else {
      auto bound = [&](std::size_t c) {
        return c >= n_chunks
                   ? rest
                   : static_cast<std::size_t>(
                         static_cast<double>(rest) *
                         std::sqrt(static_cast<double>(c) /
                                   static_cast<double>(n_chunks)));
      };
      tp.parallel_for(
          n_chunks, n_chunks, [&](std::size_t c0, std::size_t c1) {
            for (std::size_t c = c0; c < c1; ++c)
              update_rows(bound(c), bound(c + 1));
          });
    }
  }
  // The factorization only wrote the lower triangle; clear the copied upper.
  for (std::size_t i = 0; i < n; ++i) {
    double* wrow = w.row(i);
    for (std::size_t j = i + 1; j < n; ++j) wrow[j] = 0.0;
  }
  return w;
}

Matrix cholesky(const Matrix& m, const ExecContext& ctx) {
  auto l = try_cholesky(m, ctx);
  PF_CHECK(l.has_value()) << "matrix is not positive definite";
  return std::move(*l);
}

namespace {

// Unit columns one cholesky_inverse pass solves together. A row of the
// pass's work buffer holds these columns contiguously, so the innermost
// loops run across columns and vectorize.
constexpr std::size_t kInvCols = 32;

// Solves (L·Lᵀ)·X = [e_j0 … e_j0+nb−1] into inv's columns [j0, j0 + nb).
// lt = Lᵀ, so the back substitution walks L's columns as rows. w is an
// n × kInvCols buffer; row i holds the pass's values of row i.
//
// Every element keeps the chain of the per-column cholesky_solve (forward,
// then back substitution): ascending-k mul-then-subtract from its unit entry,
// then one divide by the diagonal. The forward pass starts at row and term
// j0: for column j ≥ j0, rows above j come out +0, and the terms it skips
// subtract l·(+0) — a signed zero — from +0 or 1.0, which leaves them
// unchanged. For finite L the result is therefore the per-column one, bit
// for bit.
void solve_unit_columns(const Matrix& l, const Matrix& lt, std::size_t j0,
                        std::size_t nb, double* w, Matrix& inv) {
  const std::size_t n = l.rows();
  double s[kInvCols];
  std::fill(w, w + j0 * kInvCols, 0.0);
  for (std::size_t i = j0; i < n; ++i) {
    const double* lrow = l.row(i);
    for (std::size_t c = 0; c < nb; ++c) s[c] = i == j0 + c ? 1.0 : 0.0;
    for (std::size_t k = j0; k < i; ++k) {
      const double lik = lrow[k];
      const double* yk = w + k * kInvCols;
      for (std::size_t c = 0; c < nb; ++c) s[c] -= lik * yk[c];
    }
    double* yi = w + i * kInvCols;
    for (std::size_t c = 0; c < nb; ++c) yi[c] = s[c] / lrow[i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* ltrow = lt.row(ii);  // ltrow[k] = l(k, ii)
    double* xi = w + ii * kInvCols;
    for (std::size_t c = 0; c < nb; ++c) s[c] = xi[c];
    for (std::size_t k = ii + 1; k < n; ++k) {
      const double lki = ltrow[k];
      const double* xk = w + k * kInvCols;
      for (std::size_t c = 0; c < nb; ++c) s[c] -= lki * xk[c];
    }
    double* out = inv.row(ii) + j0;
    for (std::size_t c = 0; c < nb; ++c) out[c] = xi[c] = s[c] / ltrow[ii];
  }
}

}  // namespace

Matrix cholesky_inverse(const Matrix& l, const ExecContext& ctx) {
  const std::size_t n = l.rows();
  PF_CHECK(l.cols() == n);
  // Solve (LLᵀ) X = I kInvCols unit columns per pass. O(n³), matching the
  // cost model's treatment of inversion work as a cubic kernel. Passes are
  // independent, so they fan out across the pool without changing any
  // result bit.
  const Matrix lt = l.transposed();
  Matrix inv(n, n, 0.0);
  const std::size_t n_passes = (n + kInvCols - 1) / kInvCols;
  const auto n_threads = static_cast<std::size_t>(ctx.gemm_threads());
  ThreadPool& tp = ctx.pool();
  tp.parallel_for(n_passes, n_threads, [&](std::size_t b, std::size_t e) {
    std::vector<double> w(n * kInvCols);
    for (std::size_t p = b; p < e; ++p) {
      const std::size_t j0 = p * kInvCols;
      solve_unit_columns(l, lt, j0, std::min(kInvCols, n - j0), w.data(),
                         inv);
    }
  });
  // Symmetrize to wash out round-off asymmetry.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = 0.5 * (inv(i, j) + inv(j, i));
      inv(i, j) = v;
      inv(j, i) = v;
    }
  return inv;
}

Matrix spd_inverse(const Matrix& m, double damping, const ExecContext& ctx) {
  PF_CHECK(damping >= 0.0);
  Matrix damped = m;
  if (damping > 0.0) add_diagonal(damped, damping);
  return cholesky_inverse(cholesky(damped, ctx), ctx);
}

Matrix spd_inverse(const Matrix& m, double damping, int threads) {
  return spd_inverse(m, damping, ExecContext(1, threads));
}

void add_diagonal(Matrix& m, double eps) {
  PF_CHECK(m.rows() == m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += eps;
}

}  // namespace pf
