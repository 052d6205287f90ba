#include "tests/support/kron.h"

#include "src/linalg/gemm.h"

namespace pf {

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double aij = a(i, j);
      for (std::size_t k = 0; k < b.rows(); ++k)
        for (std::size_t l = 0; l < b.cols(); ++l)
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
    }
  return out;
}

std::vector<double> vec_cols(const Matrix& m) {
  std::vector<double> v(m.rows() * m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j)
    for (std::size_t i = 0; i < m.rows(); ++i) v[j * m.rows() + i] = m(i, j);
  return v;
}

Matrix unvec_cols(const std::vector<double>& v, std::size_t rows,
                  std::size_t cols) {
  PF_CHECK(v.size() == rows * cols);
  Matrix m(rows, cols);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t i = 0; i < rows; ++i) m(i, j) = v[j * rows + i];
  return m;
}

std::vector<double> kron_matvec(const Matrix& a, const Matrix& b,
                                const Matrix& x) {
  PF_CHECK(x.rows() == b.cols() && x.cols() == a.cols());
  // (A ⊗ B) vec(X) = vec(B X Aᵀ).
  const Matrix bx = matmul(b, x);
  const Matrix bxat = matmul_nt(bx, a);
  return vec_cols(bxat);
}

}  // namespace pf
