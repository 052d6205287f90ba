// Tests for src/comm: alpha-beta collective models, and the StageChannel
// under genuinely concurrent producers (the serving engine admits micros
// from pool threads while earlier micros are still being forwarded, so
// interleaved senders are a real execution, not a hypothetical). The
// concurrent suites run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/comm/collectives.h"
#include "src/comm/stage_channel.h"
#include "src/common/check.h"
#include "src/linalg/matrix.h"

namespace pf {
namespace {

const LinkModel kLink{10e9, 5e-6};  // 10 GB/s, 5 us

TEST(Collectives, SingleDeviceIsFree) {
  EXPECT_DOUBLE_EQ(ring_allreduce_time(kLink, 1e9, 1), 0.0);
  EXPECT_DOUBLE_EQ(recursive_doubling_allreduce_time(kLink, 1e9, 1), 0.0);
  EXPECT_DOUBLE_EQ(ring_allgather_time(kLink, 1e9, 1), 0.0);
}

TEST(Collectives, RingAllreduceMatchesClosedForm) {
  // 2(w-1)/w · n/β + 2(w-1)·α for w=4, n=1GB.
  const double expect = 2.0 * 3.0 / 4.0 * 1e9 / 10e9 + 2.0 * 3.0 * 5e-6;
  EXPECT_NEAR(ring_allreduce_time(kLink, 1e9, 4), expect, 1e-12);
}

TEST(Collectives, RingIsBandwidthOptimalForLargeMessages) {
  // For large n, ring < recursive doubling (which moves 2n/β).
  EXPECT_LT(ring_allreduce_time(kLink, 1e9, 8),
            recursive_doubling_allreduce_time(kLink, 1e9, 8));
}

TEST(Collectives, DoublingWinsForSmallMessages) {
  // For tiny n with many ranks, latency dominates: 2·log2(w) rounds beat
  // 2(w-1) rounds.
  EXPECT_LT(recursive_doubling_allreduce_time(kLink, 1e3, 64),
            ring_allreduce_time(kLink, 1e3, 64));
}

TEST(Collectives, BestPicksTheCheaper) {
  for (double bytes : {1e3, 1e6, 1e9}) {
    const double best = allreduce_best_time(kLink, bytes, 16);
    EXPECT_LE(best, ring_allreduce_time(kLink, bytes, 16));
    EXPECT_LE(best, recursive_doubling_allreduce_time(kLink, bytes, 16));
  }
}

TEST(Collectives, AllgatherHalfOfAllreduce) {
  // Ring allgather is one phase of the two-phase ring allreduce.
  EXPECT_NEAR(2.0 * ring_allgather_time(kLink, 1e8, 8),
              ring_allreduce_time(kLink, 1e8, 8), 1e-12);
}

TEST(Collectives, P2PIsLatencyPlusTransfer) {
  EXPECT_NEAR(p2p_time(kLink, 1e7), 5e-6 + 1e-3, 1e-12);
}

TEST(Collectives, TimesMonotoneInBytesAndWorld) {
  double prev = 0.0;
  for (double bytes : {1e3, 1e5, 1e7, 1e9}) {
    const double t = ring_allreduce_time(kLink, bytes, 8);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_GT(ring_allreduce_time(kLink, 1e8, 16),
            ring_allreduce_time(kLink, 1e8, 4));
}

// Payload stamped with its micro id so delivery mix-ups are detectable.
Matrix stamped(int micro) {
  Matrix m(2, 3);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      m(r, c) = micro * 100.0 + static_cast<double>(r * m.cols() + c);
  return m;
}

TEST(StageChannelConcurrent, MicroKeyedDeliveryWithInterleavedSenders) {
  StageChannel ch("test");
  constexpr int kProducers = 4;
  constexpr int kMicrosEach = 16;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ch, p] {
      // Producer p owns micros {p, p + kProducers, ...} — disjoint keys,
      // fully interleaved wall-clock order.
      for (int i = 0; i < kMicrosEach; ++i) {
        const int micro = p + i * kProducers;
        ch.send(micro, stamped(micro));
      }
    });
  // Consume concurrently: recv() blocks until each key shows up, in an
  // order unrelated to the senders'.
  constexpr int kTotal = kProducers * kMicrosEach;
  for (int micro = kTotal - 1; micro >= 0; --micro) {
    const Matrix m = ch.recv(micro, /*timeout_seconds=*/30.0);
    EXPECT_EQ(m(0, 0), micro * 100.0) << "payload for micro " << micro
                                      << " carries another micro's data";
    EXPECT_EQ(m(1, 2), micro * 100.0 + 5.0);
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(ch.pending(), 0u);
  // The send log saw every micro exactly once, whatever the interleaving.
  std::vector<int> order = ch.send_order();
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kTotal));
  std::sort(order.begin(), order.end());
  for (int m = 0; m < kTotal; ++m) EXPECT_EQ(order[static_cast<std::size_t>(m)], m);
}

TEST(StageChannelConcurrent, SendOrderLogMatchesEnforcedTotalOrder) {
  // When the senders' wall-clock order IS deterministic (each thread spins
  // for its turn), the log must reproduce it exactly — the log is the
  // realized handover order, not an approximation.
  StageChannel ch("test");
  constexpr int kTotal = 64;
  std::atomic<int> turn{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p)
    producers.emplace_back([&ch, &turn, p] {
      for (int micro = p; micro < kTotal; micro += 4) {
        while (turn.load(std::memory_order_acquire) != micro)
          std::this_thread::yield();
        ch.send(micro, stamped(micro));
        turn.store(micro + 1, std::memory_order_release);
      }
    });
  for (auto& t : producers) t.join();
  const std::vector<int> order = ch.send_order();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kTotal));
  for (int m = 0; m < kTotal; ++m)
    EXPECT_EQ(order[static_cast<std::size_t>(m)], m)
        << "send log diverged from the enforced send order at position " << m;
  for (int m = 0; m < kTotal; ++m) (void)ch.take(m);
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(StageChannelConcurrent, RacingDuplicateSendsExactlyOneWins) {
  // Two producers racing the same key: exactly one send lands, the other
  // throws — concurrently, not just sequentially.
  for (int round = 0; round < 8; ++round) {
    StageChannel ch("test");
    std::atomic<int> errors{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p)
      producers.emplace_back([&ch, &errors] {
        try {
          ch.send(7, stamped(7));
        } catch (const Error&) {
          errors.fetch_add(1);
        }
      });
    for (auto& t : producers) t.join();
    EXPECT_EQ(errors.load(), 1);
    EXPECT_EQ(ch.send_order().size(), 1u);
    (void)ch.take(7);
  }
}

TEST(StageChannelConcurrent, ClearResetsBoxAndLogUnderTraffic) {
  StageChannel ch("test");
  for (int m = 0; m < 8; ++m) ch.send(m, stamped(m));
  ch.clear();
  EXPECT_EQ(ch.pending(), 0u);
  EXPECT_TRUE(ch.send_order().empty());
  // Keys are reusable after clear (step-entry reset semantics).
  ch.send(3, stamped(3));
  EXPECT_EQ(ch.recv(3)(0, 0), 300.0);
}

}  // namespace
}  // namespace pf
