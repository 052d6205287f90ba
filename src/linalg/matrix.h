// Dense row-major matrix of doubles — the numeric workhorse of the library.
//
// Deliberately simple: value semantics, bounds-checked element access, and a
// handful of elementwise helpers. operator() checks every index, so it is
// for tests and cold code; hot loops check shapes once and then index
// through row(r) or data(). Heavy kernels (GEMM, Cholesky) live in gemm.h
// and cholesky.h as free functions; gemm.h's views address a block of a
// Matrix in place.
//
// Storage is a std::vector on StorageAllocator, which draws every block from
// one process-wide pool. A freed block is parked under its element count
// and the next allocation of that count takes it back, the block parked
// last first; a count with nothing parked allocates with operator new.
// Training frees and re-allocates the same shapes every micro-batch (the
// stashes of a pipeline stage, a layer's temporaries, the serial trainer's
// step), so past the first step these allocations come from the pool
// without any call site handing a buffer back, and glibc never returns
// them to the kernel between steps. The pool never trims: it keeps each
// count's high-water mark of parked blocks for the life of the process.
// Only storage is reused, never values, so no result depends on it.
//
// The allocator default-initializes, so storage that grows is not zeroed;
// Matrix(r, c) still fills (with zeros unless told otherwise). A kernel
// that writes every element of its output starts from
// Matrix::uninitialized and skips the fill. In Debug builds (no NDEBUG)
// every block the pool hands out, fresh or recycled, is quiet NaN
// throughout, so a read before the first write shows as a NaN in the
// bitwise tests rather than as a stale value from the block's last user.
//
// Two rules come with replacing malloc on this path. fork(): a
// pthread_atfork handler holds the pool's lock across the fork, as glibc
// does for malloc, so a child never inherits it locked. ASan: a parked
// block is still allocated as far as ASan knows, so the pool poisons it
// while parked and unpoisons it on hand-out; a read of a dead Matrix's
// storage still reports, as use-after-poison instead of
// heap-use-after-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace pf {

// A block of n doubles from the storage pool, and its return (n is the
// count it was allocated with). Matrix storage reaches them through
// StorageAllocator.
double* storage_pool_allocate(std::size_t n);
void storage_pool_deallocate(double* p, std::size_t n) noexcept;

// Hand-outs the calling thread has received from the pool so far: fresh
// (operator new) and recycled (a parked block).
struct StorageHandouts {
  std::uint64_t fresh = 0;
  std::uint64_t recycled = 0;
};
StorageHandouts thread_storage_handouts();

// Process-wide bytes handed out and not yet freed (live), bytes parked, and
// the live bytes' high-water mark since the last reset_storage_pool_peak()
// (or since start). Live plus parked is what the pool holds from the heap,
// so the peak of live is the part of max RSS the pool accounts for.
struct StoragePoolBytes {
  std::size_t live = 0;
  std::size_t parked = 0;
  std::size_t peak_live = 0;
};
StoragePoolBytes storage_pool_bytes();
// Restarts the live high-water mark at the current live bytes.
void reset_storage_pool_peak();

// The allocator of Matrix::Storage: blocks come from the storage pool, and
// its argument-free construct default-initializes, so a vector built or
// resized with it leaves the new elements as they lie instead of zeroing
// them. Construction with a value (copies, explicit fills) goes through
// std::allocator_traits' default, unchanged. Instances are interchangeable.
template <typename T>
struct StorageAllocator {
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  StorageAllocator() noexcept = default;
  template <typename U>
  StorageAllocator(const StorageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return storage_pool_allocate(n); }
  void deallocate(T* p, std::size_t n) noexcept {
    storage_pool_deallocate(p, n);
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U>
  bool operator==(const StorageAllocator<U>&) const noexcept {
    return true;
  }
};

class Matrix {
 public:
  // The backing store.
  using Storage = std::vector<double, StorageAllocator<double>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  // A moved-from matrix is empty (0×0); the target takes the storage.
  Matrix(Matrix&& o) noexcept
      : rows_(std::exchange(o.rows_, 0)),
        cols_(std::exchange(o.cols_, 0)),
        data_(std::move(o.data_)) {}
  Matrix& operator=(Matrix&& o) noexcept {
    rows_ = std::exchange(o.rows_, 0);
    cols_ = std::exchange(o.cols_, 0);
    data_ = std::move(o.data_);
    return *this;
  }

  // A rows × cols matrix whose elements are unwritten (NaN in Debug
  // builds), for a kernel that writes every one of them.
  static Matrix uninitialized(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);
    return m;
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
