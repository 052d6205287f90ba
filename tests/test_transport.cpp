// The shared-memory transport stack (src/comm/): tensor wire format,
// lock-free SPSC ring, the TransportChannel that implements the
// stage-channel contract over it, transport selection, and the two
// blocking-safety fixes that ride along — parallel_for's chunk-claiming
// rewrite (ThreadPool::in_parallel_for) and RequestQueue::wait_pop's
// non-reentrancy assert. The concurrent suites here run under TSan in CI;
// the fork-based multiproc grids live in test_multiproc.cpp (forks and
// TSan do not mix).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/comm/tensor_wire.h"
#include "src/comm/transport_channel.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/serve/request_queue.h"
#include "src/train/pipeline_runtime.h"

namespace pf {
namespace {

Matrix pattern_matrix(std::size_t rows, std::size_t cols, double seed) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = seed + static_cast<double>(i) * 0.25;
  return m;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- Wire format ----------------------------------------------------------

TEST(TensorWire, RoundTripFuzzShapesAndPayloads) {
  Rng rng(123);
  std::vector<unsigned char> buf;
  for (int trial = 0; trial < 200; ++trial) {
    const auto rows = 1 + static_cast<std::size_t>(rng.uniform() * 17.0);
    const auto cols = 1 + static_cast<std::size_t>(rng.uniform() * 9.0);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
      m.data()[i] = rng.normal() * 1e3;
    // Salt with the payloads memcmp would catch but == would not (NaN,
    // -0.0) plus denormals and infinities.
    m.data()[0] = std::numeric_limits<double>::quiet_NaN();
    if (m.size() > 1) m.data()[1] = -0.0;
    if (m.size() > 2) m.data()[2] = std::numeric_limits<double>::denorm_min();
    if (m.size() > 3) m.data()[3] = -std::numeric_limits<double>::infinity();
    const int micro = trial * 7 - 3;
    buf.assign(wire_bytes(m), 0);
    const std::size_t len = serialize_tensor(micro, m, buf.data(), buf.size());
    EXPECT_EQ(len, wire_bytes(m));
    const WireMessage msg = deserialize_tensor(buf.data(), len);
    EXPECT_EQ(msg.micro, micro);
    EXPECT_TRUE(bitwise_equal(msg.payload, m)) << "trial " << trial;
  }
}

TEST(TensorWire, SerializeChecksCapacity) {
  const Matrix m = pattern_matrix(3, 4, 1.0);
  std::vector<unsigned char> buf(wire_bytes(m) - 1, 0);
  EXPECT_THROW(serialize_tensor(0, m, buf.data(), buf.size()), Error);
}

TEST(TensorWire, DeserializeRejectsTruncationAndCorruption) {
  const Matrix m = pattern_matrix(2, 5, -2.0);
  std::vector<unsigned char> buf(wire_bytes(m), 0);
  const std::size_t len = serialize_tensor(4, m, buf.data(), buf.size());
  // Truncated header.
  EXPECT_THROW(deserialize_tensor(buf.data(), kWireHeaderBytes - 1), Error);
  // Header intact but payload short of the shape it declares.
  EXPECT_THROW(deserialize_tensor(buf.data(), len - 8), Error);
  // Bad magic.
  std::vector<unsigned char> bad(buf);
  bad[0] ^= 0xFF;
  EXPECT_THROW(deserialize_tensor(bad.data(), len), Error);
}

// --- SPSC ring ------------------------------------------------------------

TEST(ShmRing, CreateFormatsTheRequestedCapacity) {
  const std::size_t slots = 3, bytes = 64;
  SharedRegion region(ShmRing::required_bytes(slots, bytes));
  ShmRing ring = ShmRing::create(region.data(), slots, bytes, "t");
  EXPECT_EQ(ring.slot_bytes(), bytes);
  EXPECT_EQ(ring.name(), "t");
  EXPECT_TRUE(ring.empty());
  // A copy is another handle onto the same ring: what one publishes, the
  // other sees, and `slots` messages fill it.
  ShmRing view = ring;
  for (std::size_t i = 0; i < slots; ++i) {
    view.acquire_slot(1.0);
    view.publish(bytes);
  }
  EXPECT_EQ(ring.size(), slots);
  EXPECT_THROW(ring.acquire_slot(0.05), Error);
}

TEST(ShmRing, FillDrainAndWraparound) {
  const std::size_t slots = 3;
  SharedRegion region(ShmRing::required_bytes(slots, 16));
  ShmRing ring = ShmRing::create(region.data(), slots, 16, "wrap");
  // Several rounds so the cursors wrap past slot_count repeatedly.
  std::uint64_t next = 0;
  for (int round = 0; round < 5; ++round) {
    for (std::size_t i = 0; i < slots; ++i) {
      unsigned char* slot = ring.acquire_slot(1.0);
      std::memcpy(slot, &next, sizeof(next));
      ++next;
      ring.publish(sizeof(next));
    }
    EXPECT_EQ(ring.size(), slots);
    // Full: the next acquire must time out, not overwrite.
    EXPECT_THROW(ring.acquire_slot(0.05), Error);
    std::uint64_t expect = next - slots;
    for (std::size_t i = 0; i < slots; ++i) {
      std::size_t len = 0;
      const unsigned char* p = ring.peek(&len, 1.0);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(len, sizeof(std::uint64_t));
      std::uint64_t got = 0;
      std::memcpy(&got, p, sizeof(got));
      EXPECT_EQ(got, expect);
      ++expect;
      ring.pop();
    }
    EXPECT_TRUE(ring.empty());
  }
  // Empty: try_peek declines, peek times out.
  std::size_t len = 0;
  EXPECT_EQ(ring.try_peek(&len), nullptr);
  EXPECT_THROW(ring.peek(&len, 0.05), Error);
}

// Concurrent producer/consumer across the full blocking surface (ring full
// on the producer, ring empty on the consumer, futex parks both ways).
// Runs under TSan in CI — the acquire/release cursor pair must be the
// complete happens-before story for the slot bytes.
TEST(ShmRing, ConcurrentProducerConsumer) {
  const std::size_t slots = 4;
  const std::uint64_t n = 20000;
  SharedRegion region(ShmRing::required_bytes(slots, 32));
  ShmRing ring = ShmRing::create(region.data(), slots, 32, "spsc");
  std::thread producer([&] {
    ShmRing prod = ring;
    for (std::uint64_t i = 0; i < n; ++i) {
      unsigned char* slot = prod.acquire_slot(30.0);
      const std::uint64_t vals[2] = {i, i * 2654435761u};
      std::memcpy(slot, vals, sizeof(vals));
      prod.publish(sizeof(vals));
    }
  });
  for (std::uint64_t i = 0; i < n; ++i) {
    std::size_t len = 0;
    const unsigned char* p = ring.peek(&len, 30.0);
    ASSERT_EQ(len, 2 * sizeof(std::uint64_t));
    std::uint64_t vals[2];
    std::memcpy(vals, p, sizeof(vals));
    ASSERT_EQ(vals[0], i);
    ASSERT_EQ(vals[1], i * 2654435761u);
    ring.pop();
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// --- TransportChannel -----------------------------------------------------

struct RingChannel {
  SharedRegion region;
  TransportChannel ch;
  RingChannel(std::size_t slots, std::size_t rows, std::size_t cols,
              const std::string& name)
      : region(ShmRing::required_bytes(slots, wire_bytes(rows, cols))),
        ch(name,
           ShmRing::create(region.data(), slots, wire_bytes(rows, cols),
                           name)) {}
};

TEST(TransportChannel, ReorderBoxDecouplesWireFromConsumeOrder) {
  RingChannel rc(4, 2, 3, "reorder");
  const Matrix m2 = pattern_matrix(2, 3, 20.0);
  const Matrix m0 = pattern_matrix(2, 3, 0.0);
  const Matrix m1 = pattern_matrix(1, 3, 10.0);  // shapes may vary per micro
  rc.ch.send(2, m2);
  rc.ch.send(0, m0);
  rc.ch.send(1, m1);
  EXPECT_EQ(rc.ch.pending(), 3u);
  EXPECT_TRUE(rc.ch.has(0));
  EXPECT_TRUE(bitwise_equal(rc.ch.recv(0, 1.0), m0));
  EXPECT_TRUE(bitwise_equal(rc.ch.take(1), m1));
  EXPECT_TRUE(bitwise_equal(rc.ch.recv(2, 1.0), m2));
  EXPECT_EQ(rc.ch.pending(), 0u);
  EXPECT_EQ(rc.ch.send_order(), (std::vector<int>{2, 0, 1}));
}

TEST(TransportChannel, DuplicateSendThrows) {
  RingChannel rc(4, 1, 2, "dup");
  rc.ch.send(5, pattern_matrix(1, 2, 0.0));
  EXPECT_THROW(rc.ch.send(5, pattern_matrix(1, 2, 1.0)), Error);
}

TEST(TransportChannel, TakeBeforeSendThrows) {
  RingChannel rc(2, 1, 2, "premature");
  EXPECT_THROW(rc.ch.take(0), Error);
}

TEST(TransportChannel, ClearDrainsWireAndEndpointState) {
  RingChannel rc(4, 1, 2, "clear");
  rc.ch.send(0, pattern_matrix(1, 2, 0.0));
  rc.ch.send(1, pattern_matrix(1, 2, 1.0));
  EXPECT_TRUE(rc.ch.has(0));  // pulls micro 0 into the reorder box
  rc.ch.clear();
  EXPECT_EQ(rc.ch.pending(), 0u);
  EXPECT_TRUE(rc.ch.send_order().empty());
  // The sent-set was reset too: the same micro id may be used again.
  rc.ch.send(0, pattern_matrix(1, 2, 2.0));
  EXPECT_TRUE(bitwise_equal(rc.ch.recv(0, 1.0), pattern_matrix(1, 2, 2.0)));
}

TEST(TransportChannel, ConcurrentSendRecvBitwise) {
  const int n = 200;
  RingChannel rc(4, 3, 5, "spsc-ch");
  std::thread producer([&] {
    for (int i = 0; i < n; ++i) rc.ch.send(i, pattern_matrix(3, 5, i * 1.5));
  });
  // Consume in an order the wire did not choose: two-ahead then catch up.
  for (int i = 0; i < n; i += 2) {
    const int hi = std::min(i + 1, n - 1);
    EXPECT_TRUE(
        bitwise_equal(rc.ch.recv(hi, 30.0), pattern_matrix(3, 5, hi * 1.5)));
    if (hi != i)
      EXPECT_TRUE(
          bitwise_equal(rc.ch.recv(i, 30.0), pattern_matrix(3, 5, i * 1.5)));
  }
  producer.join();
  EXPECT_EQ(rc.ch.pending(), 0u);
}

#ifdef __linux__
// True when thread `tid` of this process sleeps in a futex wait on a word
// inside `region` — for a ring's region, the consumer parked in
// ShmRing::peek (the only futex words there are the ring's wait words).
bool parked_on(const SharedRegion& region, long tid) {
  const std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  std::ifstream stat(dir + "stat");
  std::string line;
  std::getline(stat, line);
  // The state is the field after the parenthesized command name.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos || line.compare(close, 3, ") S") != 0)
    return false;
  std::ifstream syscall_file(dir + "syscall");
  long nr = -1;
  std::string uaddr;
  syscall_file >> nr >> uaddr;
  if (nr != SYS_futex) return false;
  const auto addr = std::stoull(uaddr, nullptr, 16);
  const auto base = reinterpret_cast<std::uintptr_t>(region.data());
  return addr >= base && addr < base + region.bytes();
}
#endif

TEST(TransportChannel, BlockedRecvRecordsItsWait) {
#ifndef __linux__
  GTEST_SKIP() << "reads the consumer's futex wait from /proc";
#else
  RingChannel rc(4, 3, 5, "parked");
  std::atomic<long> tid{0};
  Matrix got;
  std::thread consumer([&] {
    tid.store(::syscall(SYS_gettid));
    got = rc.ch.recv(0, 60.0);
  });
  while (tid.load() == 0) std::this_thread::yield();
  // Send only once the consumer sleeps on the ring: its recv found the wire
  // empty and blocked, so that recv must record one wait.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool parked = false;
  while (!(parked = parked_on(rc.region, tid.load())) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  rc.ch.send(0, pattern_matrix(3, 5, 0.0));
  consumer.join();
  ASSERT_TRUE(parked) << "the consumer never parked on the ring";
  EXPECT_TRUE(bitwise_equal(got, pattern_matrix(3, 5, 0.0)));
  EXPECT_EQ(rc.ch.recv_wait_seconds().size(), 1u);
#endif
}

// --- recv timeout diagnostics (both backends name channel, micro, and the
// micros that DID arrive) ---------------------------------------------------

template <typename MakeChannel>
void expect_recv_timeout_names_pending(MakeChannel make) {
  auto& ch = make();
  ch.send(7, pattern_matrix(1, 2, 7.0));
  ch.send(9, pattern_matrix(1, 2, 9.0));
  try {
    ch.recv(3, 0.05);
    FAIL() << "recv(3) should have timed out";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fwd[0->1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("recv(3)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("timed out"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending micros: [7, 9]"), std::string::npos) << msg;
  }
}

TEST(StageChannel, RecvTimeoutNamesChannelMicroAndPendingKeys) {
  StageChannel ch("fwd[0->1]");
  expect_recv_timeout_names_pending([&]() -> StageChannel& { return ch; });
}

TEST(TransportChannel, RecvTimeoutNamesChannelMicroAndPendingKeys) {
  RingChannel rc(4, 1, 2, "fwd[0->1]");
  expect_recv_timeout_names_pending(
      [&]() -> TransportChannel& { return rc.ch; });
}

// --- Transport selection --------------------------------------------------

TEST(Transport, ResolveDefaultsEnvAndValidation) {
  EXPECT_EQ(resolve_transport("inproc"), "inproc");
  EXPECT_EQ(resolve_transport("shm"), "shm");
  EXPECT_THROW(resolve_transport("tcp"), Error);
  ASSERT_EQ(unsetenv("PF_TRANSPORT"), 0);
  EXPECT_EQ(resolve_transport(""), "inproc");
  ASSERT_EQ(setenv("PF_TRANSPORT", "shm", 1), 0);
  EXPECT_EQ(resolve_transport(""), "shm");
  ASSERT_EQ(setenv("PF_TRANSPORT", "bogus", 1), 0);
  EXPECT_THROW(resolve_transport(""), Error);
  ASSERT_EQ(unsetenv("PF_TRANSPORT"), 0);
}

TEST(Transport, ShmRejectsMultiPipelineSchedules) {
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 4;
  cfg.seq_len = 12;
  Rng rng(7);
  BertModel model(cfg, rng);
  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);
  PipelineRuntimeConfig pc;
  pc.schedule = "chimera";  // 2 pipelines -> 2 producers per boundary
  pc.n_stages = 2;
  pc.n_micro = 4;
  pc.micro_batch_size = 2;
  pc.transport = "shm";
  EXPECT_THROW(PipelineRuntime(model, batcher, pc), Error);
}

// In-process runtime over the ring transport: bitwise-identical to the
// mutex transport (the full multiproc grids live in test_multiproc.cpp).
TEST(Transport, InProcessRuntimeShmMatchesInprocBitwise) {
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 4;
  cfg.seq_len = 12;
  auto run = [&](const std::string& transport) {
    Rng rng(7);
    BertModel model(cfg, rng);
    CorpusConfig cc;
    cc.vocab = cfg.vocab;
    SyntheticCorpus corpus(cc);
    MlmBatcherConfig bc;
    bc.seq_len = cfg.seq_len;
    MlmBatcher batcher(corpus, bc);
    PipelineRuntimeConfig pc;
    pc.schedule = "1f1b";
    pc.n_stages = 2;
    pc.n_micro = 4;
    pc.micro_batch_size = 2;
    pc.total_steps = 2;
    pc.lr = PolyWarmupSchedule(1e-2, 0, 2);
    pc.use_kfac = true;
    pc.kfac.inverse_interval = 3;
    pc.workers = 2;
    pc.transport = transport;
    PipelineRuntime rt(model, batcher, pc);
    const auto trace = rt.run();
    EXPECT_EQ(rt.transport(), transport);
    std::pair<std::vector<double>, std::vector<std::vector<double>>> r;
    r.first = trace.loss;
    for (Param* p : model.params())
      r.second.emplace_back(p->w.data(), p->w.data() + p->w.size());
    return r;
  };
  const auto inproc = run("inproc");
  const auto shm = run("shm");
  EXPECT_EQ(inproc.first, shm.first);
  ASSERT_EQ(inproc.second.size(), shm.second.size());
  for (std::size_t i = 0; i < inproc.second.size(); ++i)
    EXPECT_EQ(inproc.second[i], shm.second[i]) << "tensor " << i;
}

// --- parallel_for chunk-claiming (the safety story the serving engine's
// stage_threads relaxation rests on) ----------------------------------------

TEST(ThreadPoolChunks, InParallelForFlagTracksChunkExecution) {
  EXPECT_FALSE(ThreadPool::in_parallel_for());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.parallel_for(8, 4, [&](std::size_t, std::size_t) {
    if (ThreadPool::in_parallel_for()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 4);
  EXPECT_FALSE(ThreadPool::in_parallel_for());
}

// The load-bearing property: a parallel_for caller claims only chunks of
// ITS OWN loop. A blocking task sitting in the pool queue (the serving
// admission pump) must never be executed by a compute loop's wait.
TEST(ThreadPoolChunks, CallerNeverExecutesUnrelatedQueuedTasks) {
  // Gate outlives the pool (declared first → destroyed last): the pool's
  // destructor joins the worker while it may still be returning from
  // gate.wait().
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<bool> blocker_ran{false};
  std::atomic<bool> queued_ran{false};
  ThreadPool pool(1);
  // Occupy the single worker with a task that blocks until we say so.
  pool.submit([&blocker_ran, gate] {
    blocker_ran = true;
    gate.wait();
  });
  while (!blocker_ran) std::this_thread::yield();
  // Another blocking task waits in the queue. Under the old help-drain
  // design the parallel_for caller could pick this up and deadlock.
  pool.submit([&queued_ran, gate] {
    queued_ran = true;
    gate.wait();
  });
  std::atomic<int> chunks{0};
  pool.parallel_for(4, 4,
                    [&](std::size_t, std::size_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 4);          // loop completed on the caller
  EXPECT_FALSE(queued_ran.load());      // without touching the queued task
  release.set_value();
}

TEST(ThreadPoolChunks, ZeroWorkerPoolRunsEverythingOnCaller) {
  ThreadPool pool(0);
  std::vector<int> hits(10, 0);
  pool.parallel_for(10, 4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolChunks, ExceptionsPropagateToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8, 4,
                                 [&](std::size_t b, std::size_t) {
                                   if (b == 0)
                                     PF_CHECK(false) << "chunk failure";
                                 }),
               Error);
  // Pool still usable afterwards.
  std::atomic<int> ran{0};
  pool.parallel_for(4, 2, [&](std::size_t, std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

// --- RequestQueue::wait_pop non-reentrancy (satellite of the same fix) -----

TEST(RequestQueueReentrancy, WaitPopInsideParallelForChunkThrows) {
  RequestQueue q;
  InferRequest r;
  r.id = 1;
  r.ids = {1, 2, 3};
  q.push(std::move(r));
  q.close();
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(2, 2,
                                 [&](std::size_t, std::size_t) {
                                   (void)q.wait_pop(1, 1, 0.1);
                                 }),
               Error);
  // Outside a chunk the same call drains normally.
  EXPECT_EQ(q.wait_pop(4, 1, 0.1).size(), 1u);
}

}  // namespace
}  // namespace pf
