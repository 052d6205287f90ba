// Tests for src/serve — the continuous-batching inference serving engine.
//
// The acceptance spine is the determinism grid: replaying one fixed arrival
// trace through every (workers × stages) combination must produce bitwise-
// identical per-request logits, themselves bitwise-identical to a serial
// one-request-at-a-time BertModel::forward. That only holds because every
// forward op is row/sequence-independent (batch composition, slot
// assignment and padding neighbours cannot leak into a request's rows) —
// so these tests double as the enforcement of that contract.
//
// The concurrent engine suites run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/nn/bert.h"
#include "src/nn/stage_partition.h"
#include "src/serve/batcher.h"
#include "src/serve/request_queue.h"
#include "src/serve/serving_engine.h"
#include "src/trace/timeline.h"

namespace pf {

// The engine's boundary channels (ServingEngine befriends this struct).
struct ServingEngineTestAccess {
  static std::unique_ptr<Channel>& boundary(ServingEngine& e, int s) {
    return e.fwd_ch_[static_cast<std::size_t>(s)];
  }
};

namespace {

BertConfig serving_bert() {
  BertConfig cfg;
  cfg.vocab = 48;
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.n_heads = 4;
  cfg.n_layers = 4;  // divisible across the stage grid {1, 2, 4}
  cfg.seq_len = 16;
  return cfg;
}

// Fixed arrival trace: n requests with deterministic tokens and varying
// lengths (1..seq_len), ids 0..n-1.
std::vector<InferRequest> fixed_trace(std::size_t n, const BertConfig& cfg,
                                      std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<InferRequest> rs;
  for (std::size_t i = 0; i < n; ++i) {
    InferRequest r;
    r.id = i;
    const std::size_t len = 1 + rng.next_u64() % cfg.seq_len;
    for (std::size_t t = 0; t < len; ++t)
      r.ids.push_back(static_cast<int>(rng.next_u64() % cfg.vocab));
    // Half the requests carry an explicit segment vector, half rely on the
    // batcher's all-zero default.
    if (i % 2 == 0)
      for (std::size_t t = 0; t < len; ++t)
        r.segments.push_back(static_cast<int>(t % 2));
    rs.push_back(std::move(r));
  }
  return rs;
}

void expect_bitwise_equal(const Matrix& a, const Matrix& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_EQ(a(r, c), b(r, c))
          << what << " diverges at (" << r << ", " << c << ")";
}

// Serial one-request-at-a-time reference: each request forwarded alone
// through the unpartitioned model, padded exactly like the engine pads it.
std::vector<BertInferOutput> serial_reference(
    BertModel& model, const std::vector<InferRequest>& trace, int pad_id) {
  std::vector<BertInferOutput> outs;
  for (const InferRequest& r : trace) {
    const BertBatch b =
        make_inference_batch({r}, model.config().seq_len, pad_id);
    outs.push_back(model.forward(b, /*training=*/false));
  }
  return outs;
}

// ---------------------------------------------------------------------------
// RequestQueue

TEST(ServingQueue, FifoPopAndCloseSemantics) {
  RequestQueue q;
  for (std::uint64_t i = 0; i < 5; ++i) {
    InferRequest r;
    r.id = i;
    r.ids = {1};
    q.push(std::move(r));
  }
  EXPECT_EQ(q.size(), 5u);
  auto got = q.wait_pop(/*max_n=*/3);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_EQ(got[2].id, 2u);
  // min_n=1 is already satisfied by the 2 remaining: no blocking.
  got = q.wait_pop(/*max_n=*/3);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 3u);
  EXPECT_FALSE(q.drained());
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_TRUE(q.drained());
  // Closed and drained: empty pop, forever.
  EXPECT_TRUE(q.wait_pop(4).empty());
  InferRequest late;
  late.ids = {1};
  EXPECT_THROW(q.push(std::move(late)), Error);
}

TEST(ServingQueue, WaitPopBlocksUntilMinOrClose) {
  RequestQueue q;
  std::vector<std::size_t> sizes;
  std::thread consumer([&q, &sizes] {
    // Wants 4, min 4 — must block past the first 2 pushes, then close()
    // releases the remainder.
    sizes.push_back(q.wait_pop(4, /*min_n=*/4, /*timeout_seconds=*/30.0).size());
  });
  InferRequest a, b;
  a.ids = b.ids = {1};
  q.push(std::move(a));
  q.push(std::move(b));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 2u);  // close() returns what remains, not min_n
}

TEST(ServingQueue, WaitPopTimesOutOnStuckProducer) {
  RequestQueue q;
  EXPECT_THROW(q.wait_pop(1, 1, /*timeout_seconds=*/0.05), Error);
}

TEST(ServingQueue, PushStampsEnqueueUnlessPreset) {
  RequestQueue q;
  InferRequest fresh;
  fresh.ids = {1};
  const double before = now_seconds();
  q.push(std::move(fresh));
  InferRequest replay;
  replay.ids = {1};
  replay.enqueue_seconds = 1.25;  // synthetic replay arrival time
  q.push(std::move(replay));
  auto got = q.wait_pop(2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_GE(got[0].enqueue_seconds, before);
  EXPECT_DOUBLE_EQ(got[1].enqueue_seconds, 1.25);
}

// ---------------------------------------------------------------------------
// Batcher: the padding policy and slot machinery, pinned.

TEST(ServingBatcher, PaddingPolicyPinned) {
  const std::size_t seq = 6;
  const int pad = 9;
  InferRequest a;
  a.id = 1;
  a.ids = {10, 11, 12};
  a.segments = {0, 1};  // shorter than ids: tail extends with 0
  InferRequest b;
  b.id = 2;
  b.ids = {20, 21, 22, 23, 24, 25};  // exactly seq_len, no segments at all
  const BertBatch batch = make_inference_batch({a, b}, seq, pad);
  EXPECT_EQ(batch.batch, 2u);
  EXPECT_EQ(batch.seq, seq);
  const std::vector<int> want_ids = {10, 11, 12, pad, pad, pad,
                                     20, 21, 22, 23,  24,  25};
  EXPECT_EQ(batch.ids, want_ids);
  const std::vector<int> want_seg = {0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(batch.segments, want_seg);
  // Labels are inert placeholders: all -1 / all 0.
  EXPECT_EQ(batch.mlm_labels, std::vector<int>(2 * seq, -1));
  EXPECT_EQ(batch.nsp_labels, std::vector<int>(2, 0));
}

TEST(ServingBatcher, RejectsMalformedRequests) {
  InferRequest overlong;
  overlong.ids = {1, 2, 3, 4, 5};
  EXPECT_THROW(make_inference_batch({overlong}, /*seq_len=*/4, 0), Error);

  InferRequest empty;
  EXPECT_THROW(make_inference_batch({empty}, 4, 0), Error);

  InferRequest seg_overrun;
  seg_overrun.ids = {1, 2};
  seg_overrun.segments = {0, 1, 0};  // segments longer than ids
  EXPECT_THROW(make_inference_batch({seg_overrun}, 4, 0), Error);

  EXPECT_THROW(make_inference_batch({}, 4, 0), Error);
}

TEST(ServingBatcher, BatchPolicyNames) {
  EXPECT_STREQ(batch_policy_name(BatchPolicy::kContinuous), "continuous");
  EXPECT_STREQ(batch_policy_name(BatchPolicy::kStatic), "static");
  EXPECT_EQ(batch_policy_from_string("continuous"), BatchPolicy::kContinuous);
  EXPECT_EQ(batch_policy_from_string("static"), BatchPolicy::kStatic);
  EXPECT_THROW(batch_policy_from_string("adaptive"), Error);
}

TEST(ServingBatcher, LowestFreeSlotAssignmentAndReuseAccounting) {
  auto req = [](std::uint64_t id) {
    InferRequest r;
    r.id = id;
    r.ids = {1, 2};
    return r;
  };
  ContinuousBatcher batcher(/*max_batch=*/2, /*seq_len=*/4, /*pad_id=*/0,
                            /*n_slots=*/4);
  EXPECT_EQ(batcher.free_slots(), 4u);

  MicroBatch m0 = batcher.form({req(0), req(1)});
  EXPECT_EQ(m0.slots, (std::vector<int>{0, 1}));
  EXPECT_EQ(m0.slot_reused, (std::vector<bool>{false, false}));
  MicroBatch m1 = batcher.form({req(2)});
  EXPECT_EQ(m1.slots, (std::vector<int>{2}));
  EXPECT_EQ(batcher.free_slots(), 1u);

  // m0 completes; its slots refill while m1 is still outstanding — the
  // lowest-free-slot rule hands 0 and 1 back out, flagged as reused.
  batcher.release(m0);
  EXPECT_EQ(batcher.free_slots(), 3u);
  MicroBatch m2 = batcher.form({req(3), req(4)});
  EXPECT_EQ(m2.slots, (std::vector<int>{0, 1}));
  EXPECT_EQ(m2.slot_reused, (std::vector<bool>{true, true}));
  EXPECT_EQ(batcher.slot_reuses(), 2u);
  batcher.release(m1);
  batcher.release(m2);
  EXPECT_EQ(batcher.free_slots(), 4u);
}

// ---------------------------------------------------------------------------
// Latency stats

TEST(ServingStats, LatencyStatsAggregates) {
  const std::vector<double> lats = {4.0, 1.0, 3.0, 2.0};
  const LatencyStats s = compute_latency_stats(lats);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  const LatencyStats empty = compute_latency_stats({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
}

// ---------------------------------------------------------------------------
// Inference forwards skip backward caches (satellite 1).

TEST(ServingInference, InferenceForwardLeavesNoCaches) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(3, cfg);
  const BertBatch batch = make_inference_batch(trace, cfg.seq_len, 0);

  const BertInferOutput out = model.forward(batch, /*training=*/false);
  EXPECT_EQ(out.mlm_logits.rows(), batch.batch * cfg.seq_len);
  EXPECT_EQ(out.nsp_logits.rows(), batch.batch);
  for (Linear* l : model.kfac_linears()) {
    EXPECT_TRUE(l->cached_input().empty());
    EXPECT_FALSE(l->has_kfac_caches());
  }
  EXPECT_TRUE(model.mlm_head().cached_input().empty());
  EXPECT_TRUE(model.nsp_head().cached_input().empty());

  // training=true is the contrast: caches stay populated for a backward.
  (void)model.forward(batch, /*training=*/true);
  for (Linear* l : model.kfac_linears())
    EXPECT_FALSE(l->cached_input().empty());
}

TEST(ServingInference, StageInferLeavesStashEmptyAndMatchesModelForward) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(2, cfg);
  const BertBatch batch = make_inference_batch(trace, cfg.seq_len, 0);
  const BertInferOutput want = model.forward(batch, /*training=*/false);

  BertStagePartition part(model, /*n_stages=*/2);
  Matrix h = part.stage(0).infer(batch, Matrix(), ExecContext());
  BertInferOutput got;
  part.stage(1).infer(batch, std::move(h), ExecContext(), &got);
  expect_bitwise_equal(want.mlm_logits, got.mlm_logits, "mlm via stages");
  expect_bitwise_equal(want.nsp_logits, got.nsp_logits, "nsp via stages");
  // No backward is coming: infer() must not have stashed anything.
  EXPECT_EQ(part.stage(0).stash_bytes(), 0u);
  EXPECT_EQ(part.stage(1).stash_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// The engine: determinism grid, refill-mid-flight, accounting.

TEST(ServingEngine, DeterministicReplayMatchesSerialAcrossWorkersAndStages) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(10, cfg);
  const auto want = serial_reference(model, trace, /*pad_id=*/0);

  for (const int workers : {0, 1, 2, 4}) {
    for (const int stages : {1, 2, 4}) {
      ServingEngineConfig ec;
      ec.n_stages = stages;
      ec.max_batch = 3;  // deliberately not a divisor of the trace length
      ec.workers = workers;
      ServingEngine engine(model, ec);

      RequestQueue q;
      q.push_all(trace);
      q.close();  // replay mode: the full trace is visible up front
      const ServingReport rep = engine.run(q);

      ASSERT_EQ(rep.records.size(), trace.size())
          << "workers=" << workers << " stages=" << stages;
      EXPECT_EQ(rep.admitted_total, trace.size());
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::string at = "workers=" + std::to_string(workers) +
                               " stages=" + std::to_string(stages) +
                               " request=" + std::to_string(i);
        ASSERT_EQ(rep.records[i].id, trace[i].id) << at;
        expect_bitwise_equal(rep.records[i].output.mlm_logits,
                             want[i].mlm_logits, "mlm " + at);
        expect_bitwise_equal(rep.records[i].output.nsp_logits,
                             want[i].nsp_logits, "nsp " + at);
      }
    }
  }
}

TEST(ServingEngine, StaticPolicyMatchesSerialToo) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(8, cfg);
  const auto want = serial_reference(model, trace, 0);

  ServingEngineConfig ec;
  ec.n_stages = 2;
  ec.max_batch = 2;
  ec.workers = 2;
  ec.policy = BatchPolicy::kStatic;
  ServingEngine engine(model, ec);
  RequestQueue q;
  q.push_all(trace);
  q.close();
  const ServingReport rep = engine.run(q);

  ASSERT_EQ(rep.records.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    expect_bitwise_equal(rep.records[i].output.mlm_logits, want[i].mlm_logits,
                         "static mlm request " + std::to_string(i));
    expect_bitwise_equal(rep.records[i].output.nsp_logits, want[i].nsp_logits,
                         "static nsp request " + std::to_string(i));
  }
  // Static = drain between batches: Admit(m+1) depends on Complete(m), so
  // no admission can ever observe a micro in flight. Structural, not timing.
  EXPECT_EQ(rep.admitted_while_in_flight, 0u);
  EXPECT_EQ(rep.slots_refilled_in_flight, 0u);
  EXPECT_EQ(rep.n_micros, trace.size() / ec.max_batch);
}

// Wraps a boundary channel so that the consumer's take(m) returns only
// after the producer has sent micro m + 1 (every micro but the last): the
// next stage's forward of micro m cannot finish before admission m + 1 has
// run and micro m + 1's first forward has sent. That is the overlap
// continuous batching exists for, pinned rather than left to the OS
// scheduler. An engine that waits for micro m to drain before admitting
// m + 1 never sends m + 1, and the wait fails after `timeout_seconds`.
class HoldUntilNextSend : public Channel {
 public:
  HoldUntilNextSend(std::unique_ptr<Channel> inner, int last_micro,
                    double timeout_seconds)
      : inner_(std::move(inner)),
        last_micro_(last_micro),
        timeout_(timeout_seconds) {}

  void send(int micro, Matrix payload) override {
    inner_->send(micro, std::move(payload));
    {
      std::lock_guard<std::mutex> lock(mu_);
      max_sent_ = std::max(max_sent_, micro);
    }
    cv_.notify_all();
  }
  Matrix take(int micro) override {
    if (micro < last_micro_) {
      std::unique_lock<std::mutex> lock(mu_);
      PF_CHECK(cv_.wait_for(lock, std::chrono::duration<double>(timeout_),
                            [&] { return max_sent_ > micro; }))
          << name() << ": micro " << micro + 1
          << " was never sent while micro " << micro << " was in flight";
    }
    return inner_->take(micro);
  }
  Matrix recv(int micro, double timeout_seconds) override {
    return inner_->recv(micro, timeout_seconds);
  }
  bool has(int micro) const override { return inner_->has(micro); }
  std::size_t pending() const override { return inner_->pending(); }
  std::vector<int> send_order() const override {
    return inner_->send_order();
  }
  void clear() override {
    inner_->clear();
    std::lock_guard<std::mutex> lock(mu_);
    max_sent_ = -1;
  }
  const std::string& name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Channel> inner_;
  const int last_micro_;
  const double timeout_;
  std::mutex mu_;
  std::condition_variable cv_;
  int max_sent_ = -1;
};

TEST(ServingEngine, ContinuousBatchingRefillsSlotsMidFlight) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  // 8 micros of 2 through a 2-stage pipe with max_inflight defaulting to
  // 3: the slot pool is 6, so micro 3 onward reuses freed slots. The held
  // boundary keeps micro m in flight until admission m + 1 has run, so
  // every admission after the first lands in a live pipeline (7 x 2 = 14
  // requests), and of the 14 slots they fill at most the 4 the first
  // admission left unused are fresh — at least 10 are refills.
  const auto trace = fixed_trace(16, cfg);

  ServingEngineConfig ec;
  ec.n_stages = 2;
  ec.max_batch = 2;
  ec.workers = 2;
  ServingEngine engine(model, ec);
  auto& boundary = ServingEngineTestAccess::boundary(engine, 0);
  boundary = std::make_unique<HoldUntilNextSend>(
      std::move(boundary), /*last_micro=*/7, /*timeout_seconds=*/30.0);
  RequestQueue q;
  q.push_all(trace);
  q.close();
  const ServingReport rep = engine.run(q);

  ASSERT_EQ(rep.records.size(), trace.size());
  EXPECT_EQ(rep.n_micros, 8u);
  EXPECT_EQ(rep.admitted_while_in_flight, 14u)
      << "continuous batching did not admit into the live pipeline";
  EXPECT_GE(rep.slots_refilled_in_flight, 10u)
      << "freed slots were not handed to new requests mid-flight";
}

TEST(ServingEngine, ReportAccountingAndTimeline) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(6, cfg);

  ServingEngineConfig ec;
  ec.n_stages = 2;
  ec.max_batch = 2;
  ec.workers = 1;
  ServingEngine engine(model, ec);
  RequestQueue q;
  q.push_all(trace);
  q.close();
  const ServingReport rep = engine.run(q);

  ASSERT_EQ(rep.records.size(), 6u);
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    const RequestRecord& r = rep.records[i];
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(i));  // sorted by id
    EXPECT_GE(r.micro, 0);
    EXPECT_GE(r.slot, 0);
    // enqueue happened before run() (possibly negative vs the epoch);
    // admit and complete happen inside it, in order.
    EXPECT_LE(r.enqueue, r.admit);
    EXPECT_GE(r.admit, 0.0);
    EXPECT_GT(r.complete, r.admit);
    EXPECT_GT(r.latency(), 0.0);
  }
  EXPECT_EQ(rep.latency.n, 6u);
  EXPECT_GT(rep.latency.p50, 0.0);
  EXPECT_LE(rep.latency.p50, rep.latency.p95);
  EXPECT_LE(rep.latency.p95, rep.latency.p99);
  EXPECT_LE(rep.latency.p99, rep.latency.max);
  EXPECT_GT(rep.wall_seconds, 0.0);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_EQ(rep.deadline_misses, 0u);  // default deadline is infinite

  // The realized timeline carries one lane per stage; admissions appear on
  // lane 0 as kAdmission (idle-classified), forwards on their stage lanes.
  ASSERT_EQ(rep.timeline.n_devices(), 2u);
  std::size_t admissions = 0, forwards = 0;
  for (const Interval& iv : rep.timeline.all_intervals()) {
    if (iv.kind == WorkKind::kAdmission) {
      EXPECT_EQ(iv.device, 0u);
      ++admissions;
    } else {
      EXPECT_EQ(iv.kind, WorkKind::kForward);
      EXPECT_EQ(iv.device, static_cast<std::size_t>(iv.stage));
      ++forwards;
    }
    EXPECT_LE(iv.start, iv.end);
  }
  // 3 micros admitted + the end-of-stream admission that popped nothing.
  EXPECT_EQ(admissions, 4u);
  EXPECT_EQ(forwards, 3u * 2u);
}

TEST(ServingEngine, DeadlineMissesCounted) {
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  auto trace = fixed_trace(4, cfg);
  for (auto& r : trace) r.deadline_seconds = 0.0;  // unmeetable

  ServingEngineConfig ec;
  ec.n_stages = 1;
  ec.max_batch = 2;
  ServingEngine engine(model, ec);
  RequestQueue q;
  q.push_all(trace);
  q.close();
  const ServingReport rep = engine.run(q);
  EXPECT_EQ(rep.deadline_misses, 4u);
}

TEST(ServingEngine, RunIsRepeatable) {
  // Two runs of one engine are independent (channels cleared, fresh slot
  // pool) and bitwise identical on the same replay trace.
  const BertConfig cfg = serving_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(5, cfg);

  ServingEngineConfig ec;
  ec.n_stages = 2;
  ec.max_batch = 2;
  ec.workers = 2;
  ServingEngine engine(model, ec);
  std::vector<ServingReport> reps;
  for (int run = 0; run < 2; ++run) {
    RequestQueue q;
    q.push_all(trace);
    q.close();
    reps.push_back(engine.run(q));
  }
  ASSERT_EQ(reps[0].records.size(), reps[1].records.size());
  for (std::size_t i = 0; i < reps[0].records.size(); ++i) {
    expect_bitwise_equal(reps[0].records[i].output.mlm_logits,
                         reps[1].records[i].output.mlm_logits,
                         "mlm across runs, request " + std::to_string(i));
    expect_bitwise_equal(reps[0].records[i].output.nsp_logits,
                         reps[1].records[i].output.nsp_logits,
                         "nsp across runs, request " + std::to_string(i));
  }
}

}  // namespace
}  // namespace pf
