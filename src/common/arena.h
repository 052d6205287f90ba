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
//   * The currency is Matrix::Storage — the storage type of Matrix
//     (matrix.h grew take_data()/adopting constructors for exactly this
//     hand-off), so a buffer can flow matrix -> arena -> different matrix
//     without copying.
//   * acquire(n) reuses the smallest free buffer whose capacity covers n,
//     but only below a 2x waste bound — a huge buffer is not pinned under
//     a tiny matrix, and a buffer of twice a tensor's size (an FFN-wide
//     activation against a model-wide one when d_ff = 2·d_model) keeps its
//     own size class; past the bound (or with an empty free list) it
//     allocates fresh, so exhaustion degrades to plain allocation and the
//     arena can grow ("exhaustion growth").
//   * trim(), once per training step, frees whatever stayed parked through
//     the whole step, so the free list follows the last step's working set
//     rather than the largest one ever seen: a step whose floating tasks
//     released late grows the arena once, and the next step gives the
//     surplus back. Trimming hides a leak from free_bytes (a buffer parked
//     every step that no acquire takes is freed at the next trim), so a
//     leak shows in trimmed_bytes and the fresh count instead.
//   * Thread-safe: one mutex around the free list. Stage ops already
//     serialize per stage, but K-FAC bubble tasks of the same stage may
//     release from a different worker thread than the forward that
//     acquired — borrow/return must be clean under TSan.
//   * Values are never recycled, only storage: an acquired buffer holds
//     whatever its last user left (NaN in Debug builds, see matrix.h), and
//     every user writes each element before reading it, so arena-backed
//     results are bitwise identical to plain-allocation results at every
//     thread count.
//   * Closed per stage: the nn layers draw the activations they write from
//     the context's arena and hand each one back when it dies — a dead
//     temporary through arena_recycle, an overwritten layer cache through
//     arena_take, the stashes through BertStage's release paths. Only
//     buffers the arena hands out (or of a size it hands out again) are
//     parked, so past warm-up its free list stops growing.
//
// Telemetry (stats()): recycled vs fresh acquire counts, released-buffer
// count, current/peak bytes parked in the free list and bytes trimmed — the
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
  // capacity in [n, 2n) exists, freshly allocated otherwise). Contents are
  // unspecified (every element a quiet NaN in Debug builds) — callers
  // overwrite every element.
  Matrix::Storage acquire(std::size_t n);

  // Arena-backed deep copy of `src` (shape and values).
  Matrix copy_matrix(const Matrix& src);

  // Returns a buffer to the free list. Empty buffers (capacity 0) are
  // dropped silently — moved-from vectors route here without special-casing.
  void release(Matrix::Storage&& buf);
  void release(Matrix&& m);

  // Frees every parked buffer that no acquire has taken since the previous
  // trim() (buffers released since then stay) and counts its bytes in
  // Stats::trimmed_bytes: on a closed arena that count stops rising.
  void trim();

  struct Stats {
    std::uint64_t recycled = 0;        // acquires served from the free list
    std::uint64_t fresh = 0;           // acquires that had to allocate
    std::uint64_t released = 0;        // buffers returned to the free list
    std::size_t free_bytes = 0;        // bytes parked in the free list now
    std::size_t peak_free_bytes = 0;   // high-water mark of free_bytes
    std::uint64_t trimmed_bytes = 0;   // bytes trim() has freed so far
  };
  Stats stats() const;

 private:
  // A free buffer and the trim() interval it was parked in.
  struct Parked {
    Matrix::Storage buf;
    std::uint64_t epoch;
  };
  mutable std::mutex mu_;
  // Free buffers keyed by capacity; multimap because several same-shaped
  // tensors (one per in-flight micro) are parked at once.
  std::multimap<std::size_t, Parked> free_;
  std::uint64_t epoch_ = 0;  // trim() calls so far
  Stats stats_;
};

// The helpers below serve optional-arena call sites (ctx.arena() may be
// null): with an arena they draw storage from it and hand it back, without
// one they allocate and free as usual. Values are identical either way.

// A rows x cols matrix for the caller to overwrite: arena-backed when
// `arena` is set, Matrix::uninitialized otherwise. Contents are unspecified.
inline Matrix arena_matrix(ArenaAllocator* arena, std::size_t rows,
                           std::size_t cols) {
  return arena != nullptr ? Matrix(rows, cols, arena->acquire(rows * cols))
                          : Matrix::uninitialized(rows, cols);
}

// Hands a dead temporary's storage back to the arena (freed without one).
inline void arena_recycle(ArenaAllocator* arena, Matrix&& m) {
  if (arena != nullptr) arena->release(std::move(m));
  m = Matrix();
}

// Moves src into dst (src is left empty), handing dst's old storage back to
// the arena — how a layer cache takes over a buffer its producer is done
// with.
inline void arena_take(ArenaAllocator* arena, Matrix& dst, Matrix&& src) {
  if (arena != nullptr) arena->release(std::move(dst));
  dst = std::move(src);
  src = Matrix();
}

// Reshapes dst to rows x cols for the caller to overwrite, reusing dst's own
// storage, or an arena buffer when it has none (the same two cases as
// arena_assign below). Contents are unspecified.
inline void arena_reshape(ArenaAllocator* arena, Matrix& dst, std::size_t rows,
                          std::size_t cols) {
  Matrix::Storage buf = arena != nullptr && dst.empty()
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
