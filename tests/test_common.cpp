// Tests for src/common: checked errors, RNG, statistics, strings, thread
// pool, execution context, CPU feature detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/common/cpu_features.h"
#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "tests/support/matrix_util.h"
#include "tests/support/running_stats.h"

namespace pf {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(PF_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsWithMessage) {
  try {
    PF_CHECK(false) << "extra context " << 42;
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PF_CHECK"), std::string::npos);
    EXPECT_NE(what.find("extra context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats st;
  for (int i = 0; i < 200000; ++i) st.add(rng.normal());
  EXPECT_NEAR(st.mean(), 0.0, 0.01);
  EXPECT_NEAR(st.stddev(), 1.0, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 100000.0, 0.6, 0.02);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats st;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) st.add(x);
  EXPECT_DOUBLE_EQ(st.mean(), 5.0);
  EXPECT_DOUBLE_EQ(st.variance(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(Smoothing, FlatSeriesUnchanged) {
  std::vector<double> y(50, 2.5);
  const auto s = smooth_moving_average(y, 5);
  for (double v : s) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(Smoothing, ReducesNoiseVariance) {
  Rng rng(19);
  std::vector<double> y;
  for (int i = 0; i < 2000; ++i) y.push_back(rng.normal());
  RunningStats raw, smoothed;
  for (double v : y) raw.add(v);
  for (double v : smooth_moving_average(y, 10)) smoothed.add(v);
  EXPECT_LT(smoothed.variance(), raw.variance() / 5.0);
}

TEST(Smoothing, FirstIndexAtOrBelow) {
  std::vector<double> y = {5, 4, 3, 2, 1, 0.5};
  EXPECT_EQ(first_index_at_or_below(y, 2.5), 3);
  EXPECT_EQ(first_index_at_or_below(y, 2.5, 4), 4);
  EXPECT_EQ(first_index_at_or_below(y, -1.0), -1);
}

TEST(ServingStats, NearestRankPercentiles) {
  // 1..100 shuffled: nearest-rank p is exactly p.
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(xs, 1.0), 1.0);
  // Small n: ceil(p/100·n) ranks. n=4 → p50 is the 2nd smallest, p99 the
  // 4th; n=1 → every percentile is the sample.
  const std::vector<double> four = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(four, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(four, 99.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.0}, 50.0), 7.0);
  EXPECT_THROW(percentile_nearest_rank({}, 50.0), Error);
  EXPECT_THROW(percentile_nearest_rank({1.0}, 0.0), Error);
  EXPECT_THROW(percentile_nearest_rank({1.0}, 101.0), Error);
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
}

TEST(Strings, HumanTime) {
  EXPECT_EQ(human_time(0.0123), "12.3 ms");
  EXPECT_EQ(human_time(2.5), "2.50 s");
  EXPECT_EQ(human_time(180.0), "3.0 min");
}

TEST(Strings, HumanBytesAndPercent) {
  EXPECT_EQ(human_bytes(2.0 * 1024 * 1024 * 1024), "2.00 GB");
  EXPECT_EQ(percent(0.417), "41.7%");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcde", 4), "abcde");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, EnvIntFallsBackOnlyWhenUnsetOrEmptyAndNamesAMalformedValue) {
  const char* name = "PF_TEST_ENV_INT";
  ::unsetenv(name);
  EXPECT_EQ(env_int(name, 7), 7);
  ::setenv(name, "", 1);
  EXPECT_EQ(env_int(name, 7), 7);
  ::setenv(name, "-12", 1);
  EXPECT_EQ(env_int(name, 7), -12);
  for (const char* bad : {"2x", "three", "1.5", "99999999999"}) {
    ::setenv(name, bad, 1);
    try {
      env_int(name, 7);
      ADD_FAILURE() << "'" << bad << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(name) + "='" + bad +
                                           "' is not an integer"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv(name);
  EXPECT_EQ(parse_int("steps", "30"), 30);
  EXPECT_THROW(parse_int("steps", "abc"), Error);
  EXPECT_THROW(parse_int("steps", ""), Error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTotalAndZeroWorkersAreFine) {
  ThreadPool empty(0);
  bool ran = false;
  empty.parallel_for(0, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // With no workers the calling thread executes every chunk itself.
  std::atomic<int> sum{0};
  empty.parallel_for(10, 4, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, ChunksAreContiguousDisjointAndBalanced) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(10, 4, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(chunks.size(), 4u);
  std::sort(chunks.begin(), chunks.end());
  std::size_t covered = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_EQ(b, covered);
    EXPECT_GE(e - b, 2u);  // 10 over 4 chunks: sizes 3,3,2,2
    EXPECT_LE(e - b, 3u);
    covered = e;
  }
  EXPECT_EQ(covered, 10u);
}

TEST(ThreadPool, MoreChunksThanWorkersStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ExceptionInChunkPropagatesAfterAllChunksFinish) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(8, 4,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw Error("chunk failure");
                          ++completed;
                        }),
      Error);
  EXPECT_EQ(completed.load(), 3);
}

TEST(ThreadPool, SubmitRunsTask) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(1);
    pool.submit([&] { ran = true; });
    // Destructor drains the queue before joining.
  }
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> sum{0};
  ThreadPool::global().parallel_for(7, 3, [&](std::size_t b, std::size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 7);
  EXPECT_GE(ThreadPool::global().n_threads(), 1u);
}

TEST(ExecContext, DefaultIsSerialAndCountsBelowOneThrowNamingTheField) {
  const ExecContext serial;
  EXPECT_EQ(serial.nn_threads(), 1);
  EXPECT_EQ(serial.gemm_threads(), 1);
  // Counts below 1 are errors, named by field: a count reaches a kernel
  // only through the context it is called with.
  const struct {
    int nn, gemm;
    const char* field;
  } bad[] = {{0, 1, "nn_threads"}, {1, 0, "gemm_threads"},
             {-2, 1, "nn_threads"}};
  for (const auto& b : bad) {
    try {
      ExecContext ctx(b.nn, b.gemm);
      ADD_FAILURE() << "ExecContext(" << b.nn << ", " << b.gemm
                    << ") was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(b.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(CpuFeatures, LevelsAreOrderedAndNamed) {
  const SimdLevel detected = detected_simd_level();
  const SimdLevel active = active_simd_level();
  // Active can never exceed what the host/build supports.
  EXPECT_LE(static_cast<int>(active), static_cast<int>(detected));
  EXPECT_STREQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(simd_level_name(SimdLevel::kAvx512), "avx512");
}

TEST(CpuFeatures, SetLevelClampsToDetectedAndRoundTrips) {
  const SimdLevel prev = active_simd_level();
  // Scalar is always available.
  EXPECT_EQ(set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  // Requests above the detected level clamp down to it; requests at or
  // below it are honored exactly.
  const SimdLevel detected = detected_simd_level();
  for (SimdLevel req : {SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    const SimdLevel want =
        static_cast<int>(req) <= static_cast<int>(detected) ? req : detected;
    EXPECT_EQ(set_simd_level(req), want) << simd_level_name(req);
  }
  set_simd_level(prev);
  EXPECT_EQ(active_simd_level(), prev);
}

TEST(Arena, RecyclesReleasedBuffersWithinWasteBound) {
  ArenaAllocator arena;
  Matrix::Storage buf = arena.acquire(100);
  const double* storage = buf.data();
  arena.release(std::move(buf));
  EXPECT_EQ(arena.stats().released, 1u);
  EXPECT_EQ(arena.stats().free_bytes, 100 * sizeof(double));

  // A smaller request within the 2x bound reuses the same storage.
  Matrix::Storage again = arena.acquire(60);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(again.size(), 60u);
  EXPECT_EQ(arena.stats().recycled, 1u);
  EXPECT_EQ(arena.stats().free_bytes, 0u);
  arena.release(std::move(again));

  // A request the parked buffer would waste >2x on allocates fresh and
  // leaves the parked buffer alone.
  Matrix::Storage tiny = arena.acquire(10);
  EXPECT_EQ(tiny.size(), 10u);
  EXPECT_EQ(arena.stats().fresh, 2u);  // the first acquire + this one
  EXPECT_GT(arena.stats().free_bytes, 0u);
}

TEST(Arena, RecyclesOnlyBelowTwiceTheRequest) {
  // A parked capacity c serves acquire(n) when n <= c < 2n: 2n - 1 is the
  // last capacity that recycles, 2n (a buffer twice the tensor's size) and
  // anything short of n allocate fresh.
  const std::size_t n = 48;
  ArenaAllocator arena;
  arena.release(Matrix::Storage(2 * n));
  arena.release(Matrix::Storage(n - 1));
  const Matrix::Storage a = arena.acquire(n);
  EXPECT_EQ(arena.stats().fresh, 1u);
  EXPECT_EQ(arena.stats().recycled, 0u);
  EXPECT_EQ(arena.stats().free_bytes, (3 * n - 1) * sizeof(double));

  arena.release(Matrix::Storage(2 * n - 1));
  const Matrix::Storage b = arena.acquire(n);
  EXPECT_EQ(arena.stats().recycled, 1u);
  EXPECT_EQ(b.size(), n);
  EXPECT_EQ(b.capacity(), 2 * n - 1);
}

TEST(Arena, ReusesTheLastParkedBufferOfACapacity) {
  // Of several parked buffers of one capacity, acquire takes the one parked
  // last, so the buffers left at the bottom are the ones trim() finds
  // unused.
  ArenaAllocator arena;
  std::vector<const double*> parked;
  for (int i = 0; i < 3; ++i) {
    Matrix::Storage buf(32);
    parked.push_back(buf.data());
    arena.release(std::move(buf));
  }
  const Matrix::Storage last = arena.acquire(32);
  const Matrix::Storage middle = arena.acquire(32);
  EXPECT_EQ(last.data(), parked[2]);
  EXPECT_EQ(middle.data(), parked[1]);
  EXPECT_EQ(arena.stats().free_bytes, 32 * sizeof(double));
}

TEST(Arena, TrimFreesWhatNoAcquireTookSinceTheLastTrim) {
  ArenaAllocator arena;
  arena.release(Matrix::Storage(10));
  arena.release(Matrix::Storage(20));
  // Both were parked since the last trim (none yet): both stay.
  arena.trim();
  EXPECT_EQ(arena.stats().free_bytes, 30 * sizeof(double));
  EXPECT_EQ(arena.stats().trimmed_bytes, 0u);

  // The 10-buffer is taken and parked again; the 20-buffer sat through a
  // whole interval untouched and goes.
  arena.release(arena.acquire(10));
  arena.trim();
  EXPECT_EQ(arena.stats().free_bytes, 10 * sizeof(double));
  EXPECT_EQ(arena.stats().trimmed_bytes, 20 * sizeof(double));
  Matrix::Storage kept = arena.acquire(10);
  EXPECT_EQ(arena.stats().recycled, 2u);
  EXPECT_EQ(arena.stats().fresh, 0u);
  arena.release(std::move(kept));

  // A buffer released during the interval stays even if nothing took it;
  // the next trim frees it unless an acquire takes it first.
  arena.trim();
  EXPECT_EQ(arena.stats().free_bytes, 10 * sizeof(double));
  arena.trim();
  EXPECT_EQ(arena.stats().free_bytes, 0u);
  EXPECT_EQ(arena.stats().trimmed_bytes, 30 * sizeof(double));
}

TEST(Arena, ExhaustionGrowsInsteadOfFailing) {
  // More concurrent acquires than parked buffers: the surplus allocates
  // fresh ("exhaustion growth"), nothing throws, and all buffers are
  // usable and distinct.
  ArenaAllocator arena;
  arena.release(Matrix::Storage(50));
  std::vector<Matrix::Storage> live;
  for (int i = 0; i < 8; ++i) live.push_back(arena.acquire(50));
  EXPECT_EQ(arena.stats().recycled, 1u);
  EXPECT_EQ(arena.stats().fresh, 7u);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].size(), 50u);
    for (std::size_t j = i + 1; j < live.size(); ++j)
      EXPECT_NE(live[i].data(), live[j].data());
  }
}

TEST(Arena, MatrixRoundTripPreservesValuesAndAlignment) {
  ArenaAllocator arena;
  Matrix m = arena_matrix(&arena, 7, 9);
  EXPECT_EQ(m.rows(), 7u);
  EXPECT_EQ(m.cols(), 9u);
  EXPECT_EQ(arena.stats().fresh, 1u);
  // Matrix::Storage: at least alignof(double) everywhere the kernels load
  // from (they use unaligned loads, but the base must be a valid double
  // array).
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(0)) % alignof(double),
            0u);

  Matrix src(4, 4);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      src(r, c) = static_cast<double>(r * 4 + c);
  arena.release(std::move(m));
  const Matrix copy = arena.copy_matrix(src);
  EXPECT_EQ(max_abs_diff(copy, src), 0.0);

  // Null-arena helpers fall back to plain allocation with equal values.
  const Matrix plain = arena_matrix(nullptr, 4, 4);
  EXPECT_EQ(plain.rows(), 4u);
  EXPECT_EQ(plain.cols(), 4u);
  Matrix dst;
  arena_assign(nullptr, dst, src);
  EXPECT_EQ(max_abs_diff(dst, src), 0.0);
}

TEST(Arena, UnwrittenStorageReadsAsNaNInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "unwritten storage is poisoned only in Debug builds";
#else
  // Storage handed out without a fill reads as quiet NaN, so a kernel that
  // reads an element before writing it turns a bitwise suite's result into
  // NaN: Matrix::uninitialized, the growth of the adopting constructor,
  // and every arena acquire, fresh or recycled.
  const auto all_nan = [](const double* p, std::size_t n) {
    return std::all_of(p, p + n, [](double v) { return std::isnan(v); });
  };
  const Matrix u = Matrix::uninitialized(3, 5);
  EXPECT_TRUE(all_nan(u.data(), u.size()));
  const Matrix grown(3, 3, Matrix::Storage(4, 2.0));
  EXPECT_TRUE(std::all_of(grown.data(), grown.data() + 4,
                          [](double v) { return v == 2.0; }));
  EXPECT_TRUE(all_nan(grown.data() + 4, 5));
  ArenaAllocator arena;
  Matrix::Storage fresh = arena.acquire(6);
  EXPECT_TRUE(all_nan(fresh.data(), fresh.size()));
  std::fill(fresh.begin(), fresh.end(), 1.0);
  arena.release(std::move(fresh));
  const Matrix::Storage recycled = arena.acquire(5);
  EXPECT_EQ(arena.stats().recycled, 1u);
  EXPECT_TRUE(all_nan(recycled.data(), recycled.size()));
#endif
}

TEST(Arena, ArenaAssignRecyclesOnlyIntoEmptyDestinations) {
  ArenaAllocator arena;
  arena.release(Matrix::Storage(12));
  Matrix src(3, 4, 2.0);
  Matrix dst;  // empty: arena serves the storage
  arena_assign(&arena, dst, src);
  EXPECT_EQ(max_abs_diff(dst, src), 0.0);
  EXPECT_EQ(arena.stats().recycled, 1u);
  // Non-empty destination: plain copy-assign, arena untouched.
  Matrix dst2(3, 4, 0.0);
  arena_assign(&arena, dst2, src);
  EXPECT_EQ(max_abs_diff(dst2, src), 0.0);
  EXPECT_EQ(arena.stats().recycled, 1u);
  EXPECT_EQ(arena.stats().fresh, 0u);
}

TEST(Arena, ConcurrentBorrowAndReturnIsClean) {
  // The pipeline's pattern: many workers acquire, fill, and release
  // concurrently (K-FAC bubble tasks release from different threads than
  // the forwards that acquired). TSan must see clean handoffs, and every
  // acquire must observe its own writes only.
  ArenaAllocator arena;
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  pool.parallel_for(64, 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const std::size_t n = 64 + (i % 7) * 16;
      Matrix::Storage buf = arena.acquire(n);
      const double tag = static_cast<double>(i + 1);
      for (auto& v : buf) v = tag;
      for (const auto& v : buf)
        if (v != tag) bad.fetch_add(1);
      arena.release(std::move(buf));
    }
  });
  EXPECT_EQ(bad.load(), 0);
  const auto st = arena.stats();
  EXPECT_EQ(st.recycled + st.fresh, 64u);
  EXPECT_EQ(st.released, 64u);
}

}  // namespace
}  // namespace pf
