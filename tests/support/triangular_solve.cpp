#include "tests/support/triangular_solve.h"

#include "src/common/check.h"

namespace pf {

std::vector<double> forward_substitute(const Matrix& l,
                                       const std::vector<double>& b) {
  const std::size_t n = l.rows();
  PF_CHECK(l.cols() == n && b.size() == n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* lrow = l.row(i);
    for (std::size_t k = 0; k < i; ++k) s -= lrow[k] * y[k];
    y[i] = s / lrow[i];
  }
  return y;
}

std::vector<double> back_substitute(const Matrix& l,
                                    const std::vector<double>& y) {
  const std::size_t n = l.rows();
  PF_CHECK(l.cols() == n && y.size() == n);
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& l,
                                   const std::vector<double>& b) {
  return back_substitute(l, forward_substitute(l, b));
}

}  // namespace pf
