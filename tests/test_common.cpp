// Tests for src/common: checked errors, RNG, statistics, strings, thread
// pool, execution context, CPU feature detection — and the storage pool
// under Matrix (linalg/matrix.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/cpu_features.h"
#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/linalg/matrix.h"
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

// Matrix storage comes from one process-wide pool (linalg/matrix.h). The
// tests below use element counts that no other test in this binary
// allocates, so the free lists they read start empty.
TEST(StoragePool, AFreedBlockIsTheNextOneHandedOutAtItsCount) {
  const StorageHandouts h0 = thread_storage_handouts();
  const double* freed = nullptr;
  {
    const Matrix m = Matrix::uninitialized(7, 131);
    freed = m.data();
  }
  const Matrix again = Matrix::uninitialized(131, 7);  // same count
  EXPECT_EQ(again.data(), freed);
  const StorageHandouts h1 = thread_storage_handouts();
  EXPECT_EQ(h1.fresh - h0.fresh, 1u);
  EXPECT_EQ(h1.recycled - h0.recycled, 1u);
  // Another count does not take it: nothing is parked there yet.
  const Matrix other = Matrix::uninitialized(7, 132);
  const StorageHandouts h2 = thread_storage_handouts();
  EXPECT_EQ(h2.fresh - h1.fresh, 1u);
  EXPECT_EQ(h2.recycled, h1.recycled);

  // Of several parked blocks of one count, the one parked last goes first.
  std::vector<Matrix> live;
  std::vector<const double*> parked;
  for (int i = 0; i < 3; ++i) {
    live.push_back(Matrix::uninitialized(1, 1009));
    parked.push_back(live.back().data());
  }
  for (Matrix& m : live) m = Matrix();
  const Matrix last = Matrix::uninitialized(1, 1009);
  const Matrix middle = Matrix::uninitialized(1, 1009);
  EXPECT_EQ(last.data(), parked[2]);
  EXPECT_EQ(middle.data(), parked[1]);
}

TEST(StoragePool, CountersAreExact) {
  // This thread's fresh/recycled hand-outs and the process-wide live and
  // parked bytes move by exactly what each allocation and free implies;
  // the live high-water mark keeps the largest live reading since reset.
  const std::size_t n = 1013;
  const std::size_t bytes = n * sizeof(double);
  const StorageHandouts h0 = thread_storage_handouts();
  reset_storage_pool_peak();
  const StoragePoolBytes b0 = storage_pool_bytes();
  EXPECT_EQ(b0.peak_live, b0.live);
  {
    Matrix a = Matrix::uninitialized(1, n);  // fresh: nothing parked at n
    Matrix b(1, n, 3.0);                     // fresh
    const StoragePoolBytes b1 = storage_pool_bytes();
    EXPECT_EQ(b1.live, b0.live + 2 * bytes);
    EXPECT_EQ(b1.parked, b0.parked);
    a = Matrix();  // parked
    const StoragePoolBytes b2 = storage_pool_bytes();
    EXPECT_EQ(b2.live, b0.live + bytes);
    EXPECT_EQ(b2.parked, b0.parked + bytes);
    const Matrix c = b;  // a copy takes the parked block back
    const StoragePoolBytes b3 = storage_pool_bytes();
    EXPECT_EQ(b3.live, b0.live + 2 * bytes);
    EXPECT_EQ(b3.parked, b0.parked);
  }
  const StorageHandouts h1 = thread_storage_handouts();
  EXPECT_EQ(h1.fresh - h0.fresh, 2u);
  EXPECT_EQ(h1.recycled - h0.recycled, 1u);
  const StoragePoolBytes b4 = storage_pool_bytes();
  EXPECT_EQ(b4.live, b0.live);
  EXPECT_EQ(b4.parked, b0.parked + 2 * bytes);
  EXPECT_EQ(b4.peak_live, b0.live + 2 * bytes);
  reset_storage_pool_peak();
  EXPECT_EQ(storage_pool_bytes().peak_live, b0.live);
  // A move hands out and frees nothing; only d's allocation (one of the
  // two parked blocks) counts.
  Matrix d = Matrix::uninitialized(1, n);
  Matrix e = std::move(d);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.rows(), 0u);
  EXPECT_EQ(e.size(), n);
  const StorageHandouts h2 = thread_storage_handouts();
  EXPECT_EQ(h2.fresh - h1.fresh, 0u);
  EXPECT_EQ(h2.recycled - h1.recycled, 1u);
}

TEST(StoragePool, UnwrittenStorageReadsAsNaNInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "unwritten storage is poisoned only in Debug builds";
#else
  // Storage handed out without a fill reads as quiet NaN, so a kernel that
  // reads an element before writing it turns a bitwise suite's result into
  // NaN rather than into its last user's values: every hand-out, fresh or
  // recycled.
  const auto all_nan = [](const Matrix& m) {
    return std::all_of(m.data(), m.data() + m.size(),
                       [](double v) { return std::isnan(v); });
  };
  const StorageHandouts h0 = thread_storage_handouts();
  {
    Matrix fresh = Matrix::uninitialized(3, 337);
    EXPECT_TRUE(all_nan(fresh));
    fresh.fill(1.0);
  }
  const Matrix recycled = Matrix::uninitialized(337, 3);
  const StorageHandouts h1 = thread_storage_handouts();
  EXPECT_EQ(h1.fresh - h0.fresh, 1u);
  EXPECT_EQ(h1.recycled - h0.recycled, 1u);
  EXPECT_TRUE(all_nan(recycled));
#endif
}

TEST(StoragePool, ConcurrentAllocateAndFreeIsClean) {
  // The pipeline's pattern: stage tasks on several threads allocate, fill
  // and free the same sizes, and a block freed on one thread is handed out
  // on another. TSan must see clean hand-offs, and every hand-out must
  // observe its own writes only.
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([t, &bad] {
      for (int i = 0; i < 200; ++i) {
        const std::size_t n = 64 + static_cast<std::size_t>(i % 7) * 16;
        Matrix m = Matrix::uninitialized(1, n);
        const double tag = static_cast<double>(t * 1000 + i);
        m.fill(tag);
        for (std::size_t j = 0; j < n; ++j)
          if (m.data()[j] != tag) bad.fetch_add(1);
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

#if defined(__SANITIZE_ADDRESS__)
#define PF_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PF_TEST_ASAN 1
#endif
#endif
#ifdef PF_TEST_ASAN
TEST(StoragePoolDeathTest, ReadingADeadMatrixIsReported) {
  // A parked block is poisoned, so ASan reports a read of a dead Matrix's
  // storage (use-after-poison) as it reports a read of freed memory
  // (heap-use-after-free).
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        const double* p = nullptr;
        {
          const Matrix m(4, 4, 1.0);
          p = m.data();
        }
        const volatile double v = p[0];
        (void)v;
      },
      "use-after-");
}
#endif

}  // namespace
}  // namespace pf
