// Dense row-major matrix of doubles — the numeric workhorse of the library.
//
// Deliberately simple: value semantics, bounds-checked element access, and a
// handful of elementwise helpers. operator() checks every index, so it is
// for tests and cold code; hot loops check shapes once and then index
// through row(r) or data(). Heavy kernels (GEMM, Cholesky) live in gemm.h
// and cholesky.h as free functions; gemm.h's views address a block of a
// Matrix in place.
//
// Storage is a std::vector whose allocator default-initializes, so storage
// that grows is not zeroed; Matrix(r, c) still fills (with zeros unless told
// otherwise). A kernel that writes every element of its output starts from
// Matrix::uninitialized, or from an arena buffer (common/arena.h), and skips
// the fill. In Debug builds (no NDEBUG) every element handed out that way is
// a quiet NaN, so a read before the first write shows as a NaN in the
// bitwise tests.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace pf {

// std::allocator whose argument-free construct default-initializes: a
// vector<double> built or resized with it leaves the new elements as they
// lie instead of zeroing them. Construction with a value (copies, explicit
// fills) goes through std::allocator_traits' default, unchanged.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

// Marks n elements at p as unwritten: a quiet NaN each in Debug builds, a
// no-op otherwise.
inline void poison_unwritten(double* p, std::size_t n) {
#ifndef NDEBUG
  for (std::size_t i = 0; i < n; ++i)
    p[i] = std::numeric_limits<double>::quiet_NaN();
#else
  (void)p;
  (void)n;
#endif
}

class Matrix {
 public:
  // The backing store, and the currency of ArenaAllocator.
  using Storage = std::vector<double, DefaultInitAllocator<double>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  // Adopts `buf` as the backing storage, resized to rows*cols — existing
  // capacity is reused, which is how ArenaAllocator (common/arena.h) hands
  // recycled buffers back without reallocating. Element values are
  // whatever buf held, and the elements a growing resize adds are
  // unwritten (NaN in Debug builds); callers overwrite them.
  Matrix(std::size_t rows, std::size_t cols, Storage&& buf)
      : rows_(rows), cols_(cols), data_(std::move(buf)) {
    const std::size_t held = data_.size();
    data_.resize(rows_ * cols_);
    if (data_.size() > held)
      poison_unwritten(data_.data() + held, data_.size() - held);
  }

  // A rows × cols matrix whose elements are unwritten (NaN in Debug
  // builds), for a kernel that writes every one of them.
  static Matrix uninitialized(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, Storage());
  }

  // Steals the backing storage (capacity intact), leaving the matrix empty
  // (0×0) — the other half of the arena hand-off.
  Storage take_data() {
    Storage out = std::move(data_);
    data_ = Storage();
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
  Storage data_;
};

}  // namespace pf
