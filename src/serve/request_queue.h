// Admission queue for the serving engine (src/serve/serving_engine.h).
//
// Producers push inference requests (token sequences + deadline metadata);
// the engine's admission task pops them in FIFO order to form micro-batches
// (src/serve/batcher.h). The queue supports two usage modes:
//
//   live:   producers push concurrently while the engine runs, then call
//           close() when traffic ends. wait_pop() blocks for work.
//   replay: a fixed arrival trace is loaded up front (push_all + close())
//           before run() starts. Admission then observes the exact same
//           FIFO sequence regardless of worker count or timing, which is
//           what makes the serving tests' bitwise-determinism grid
//           (workers × stages) possible.
//
// close() is the only end-of-stream signal: wait_pop() never returns an
// empty batch until the queue is both closed and drained.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <vector>

#include <condition_variable>

#include "src/common/clock.h"  // now_seconds(): every serving timestamp

namespace pf {

// One inference request: a token sequence plus deadline metadata. Sequences
// may be shorter than the model's seq_len — the batcher pads them (policy
// pinned in batcher.h); longer ones are rejected at admission.
struct InferRequest {
  std::uint64_t id = 0;       // caller-chosen, unique within a run
  std::vector<int> ids;       // input tokens
  std::vector<int> segments;  // 0/1 per token; missing tail padded with 0
  // SLA metadata: latency budget in seconds. Requests completing later than
  // enqueue + deadline count as deadline_misses in the ServingReport.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  // Stamped by push() from the steady clock unless pre-set (>= 0) — a
  // replay trace pre-sets it to carry synthetic arrival times.
  double enqueue_seconds = -1.0;
};

class RequestQueue {
 public:
  // FIFO append; stamps enqueue_seconds if the request did not pre-set it.
  // Throws if the queue is closed.
  void push(InferRequest r);
  void push_all(std::vector<InferRequest> rs);

  // Declares end of traffic; blocked wait_pop() calls wake and return what
  // remains (possibly nothing). Idempotent.
  void close();
  bool closed() const;
  std::size_t size() const;
  // closed() and empty — nothing will ever be popped again.
  bool drained() const;

  // Pops up to `max_n` requests in FIFO order. Blocks until at least
  // `min_n` are queued or the queue is closed — a closed queue returns
  // whatever is left, down to an empty vector once drained. Throws
  // pf::Error after `timeout_seconds` without the condition holding, so a
  // stuck producer surfaces as an error instead of a hang (same policy as
  // StageChannel::recv).
  //
  // NON-REENTRANT from data-parallel loops: calling this from inside a
  // ThreadPool::parallel_for chunk is PF_CHECKed as a bug. parallel_for's
  // chunk-claiming rewrite already guarantees a compute loop never
  // *executes* someone else's blocking admission task; this assert closes
  // the remaining hole (a chunk body blocking on live traffic itself),
  // which together makes serving with stage_threads > 1 safe under live
  // producers.
  std::vector<InferRequest> wait_pop(std::size_t max_n, std::size_t min_n = 1,
                                     double timeout_seconds = 60.0);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InferRequest> q_;
  bool closed_ = false;
};

}  // namespace pf
