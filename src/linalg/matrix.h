// Dense row-major matrix of doubles — the numeric workhorse of the library.
//
// Deliberately simple: value semantics, bounds-checked element access, and a
// handful of elementwise helpers. operator() checks every index, so it is
// for tests and cold code; hot loops check shapes once and then index
// through row(r) or data(). Heavy kernels (GEMM, Cholesky) live in gemm.h
// and cholesky.h as free functions; gemm.h's views address a block of a
// Matrix in place.
#pragma once

#include <cstddef>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace pf {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Adopts `buf` as the backing storage, resized to rows*cols — existing
  // capacity is reused, which is how ArenaAllocator (common/arena.h) hands
  // recycled buffers back without reallocating. Element values are
  // whatever the resize left in place; callers overwrite them.
  Matrix(std::size_t rows, std::size_t cols, std::vector<double>&& buf)
      : rows_(rows), cols_(cols), data_(std::move(buf)) {
    data_.resize(rows_ * cols_);
  }

  // Steals the backing storage (capacity intact), leaving the matrix empty
  // (0×0) — the other half of the arena hand-off.
  std::vector<double> take_data() {
    std::vector<double> out = std::move(data_);
    data_ = std::vector<double>();
    rows_ = 0;
    cols_ = 0;
    return out;
  }

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0);
  }
  static Matrix randn(std::size_t rows, std::size_t cols, Rng& rng,
                      double stddev = 1.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    PF_ASSERT(r < rows_ && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    PF_ASSERT(r < rows_ && c < cols_)
        << "index (" << r << "," << c << ") out of " << rows_ << "x" << cols_;
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  // Elementwise in-place ops (shapes must match).
  Matrix& operator+=(const Matrix& o);
  Matrix& operator*=(double s);
  // this = this * a + o * b (axpby).
  Matrix& axpby(double a, const Matrix& o, double b);
  void fill(double v);

  double frobenius_norm() const;

  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pf
