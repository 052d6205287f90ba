#include "tests/support/matrix_util.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pf {

Matrix identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix from_rows(const std::vector<std::vector<double>>& rows) {
  PF_CHECK(!rows.empty());
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    PF_CHECK(rows[r].size() == cols) << "ragged row " << r;
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

double max_abs(const Matrix& m) {
  double out = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i)
    out = std::max(out, std::abs(m.data()[i]));
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  PF_CHECK(a.same_shape(b));
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
  return m;
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  PF_CHECK(a.cols() == x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

}  // namespace pf
