// Buffer recycler for the hot-path activation stashes.
//
// The pipeline runtime churns through large, repetitively-shaped tensors:
// every micro-batch forward allocates fresh activation matrices, stashes
// them for the backward and the K-FAC curvature reads, and frees the lot at
// (or before) end of step — only to allocate the same shapes again one micro
// later. ArenaAllocator turns that malloc/free churn into a free-list
// round-trip: released buffers are kept, keyed by capacity, and the next
// acquire of a compatible size gets a recycled buffer instead of a fresh
// allocation.
//
// Design notes:
//   * The currency is std::vector<double> — the storage type of Matrix
//     (matrix.h grew take_data()/adopting constructors for exactly this
//     hand-off) and of the layer caches' auxiliary vectors, so a buffer can
//     flow matrix -> arena -> different matrix without copying.
//   * acquire(n) reuses the smallest free buffer whose capacity covers n,
//     but only within a 2x waste bound — a huge buffer is not pinned under
//     a tiny matrix; past the bound (or with an empty free list) it
//     allocates fresh, so exhaustion degrades to plain allocation and the
//     arena can grow without limit ("exhaustion growth").
//   * Thread-safe: one mutex around the free list. Stage ops already
//     serialize per stage, but K-FAC bubble tasks of the same stage may
//     release from a different worker thread than the forward that
//     acquired — borrow/return must be clean under TSan.
//   * Values are never recycled, only storage: every acquire resizes and
//     (for matrix acquires) refills, so arena-backed results are bitwise
//     identical to plain-allocation results at every thread count.
//
// Telemetry (stats()): recycled vs fresh acquire counts, released-buffer
// count, and current/peak bytes parked in the free list — the
// BENCH_pipeline_runtime recycle evidence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "src/linalg/matrix.h"

namespace pf {

class ArenaAllocator {
 public:
  ArenaAllocator() = default;
  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  // A buffer of size exactly n (recycled storage when a free buffer with
  // capacity in [n, 2n] exists, freshly allocated otherwise). Contents are
  // unspecified — callers overwrite every element.
  std::vector<double> acquire(std::size_t n);

  // Arena-backed Matrix of the given shape, every element set to `fill` —
  // the recycling analogue of Matrix(rows, cols, fill).
  Matrix acquire_matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  // Arena-backed deep copy of `src` (shape and values).
  Matrix copy_matrix(const Matrix& src);

  // Returns a buffer to the free list. Empty buffers (capacity 0) are
  // dropped silently — moved-from vectors route here without special-casing.
  void release(std::vector<double>&& buf);
  void release(Matrix&& m);

  struct Stats {
    std::uint64_t recycled = 0;        // acquires served from the free list
    std::uint64_t fresh = 0;           // acquires that had to allocate
    std::uint64_t released = 0;        // buffers returned to the free list
    std::size_t free_bytes = 0;        // bytes parked in the free list now
    std::size_t peak_free_bytes = 0;   // high-water mark of free_bytes
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  // Free buffers keyed by capacity; multimap because several same-shaped
  // tensors (one per in-flight micro) are parked at once.
  std::multimap<std::size_t, std::vector<double>> free_;
  Stats stats_;
};

// Convenience for optional-arena call sites (ctx.arena() may be null):
// arena-backed when `arena` is set, plain allocation otherwise. Values are
// identical either way.
Matrix arena_matrix(ArenaAllocator* arena, std::size_t rows, std::size_t cols,
                    double fill = 0.0);

// Reshapes dst to rows x cols for the caller to overwrite, reusing dst's own
// storage, or an arena buffer when it has none (the same two cases as
// arena_assign below). Contents are unspecified.
inline void arena_reshape(ArenaAllocator* arena, Matrix& dst, std::size_t rows,
                          std::size_t cols) {
  std::vector<double> buf = arena != nullptr && dst.empty()
                                ? arena->acquire(rows * cols)
                                : dst.take_data();
  dst = Matrix(rows, cols, std::move(buf));
}

// Copy-assigns src into dst, recycling arena storage when dst has none. A
// layer cache in the serial trainer keeps its buffer between steps, so the
// plain copy-assign reuses that capacity; in the pipeline the stash
// machinery moved the buffer out after the last forward, leaving dst empty —
// that is the case an arena acquire serves. Values are identical either way.
inline void arena_assign(ArenaAllocator* arena, Matrix& dst,
                         const Matrix& src) {
  if (arena != nullptr && dst.empty()) {
    dst = arena->copy_matrix(src);
    return;
  }
  dst = src;
}

}  // namespace pf
