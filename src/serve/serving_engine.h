// Pipelined inference serving engine — continuous batching over the same
// stage-partition + task-executor machinery the training runtime uses
// (ROADMAP direction 2; the PipeFisher bubble mechanism with a new
// payload).
//
// One run() drains a RequestQueue through forward-only per-micro stage
// programs:
//
//   Admit(m):      pop requests, form micro-batch m (slots assigned by the
//                  ContinuousBatcher — freed slots refill mid-flight),
//                  then dynamically grow the task graph with the micro's
//                  forward chain and Admit(m+1).
//   Forward(s,m):  stage s's inference forward of micro m (no backward
//                  cache stashes), boundary activations handed over
//                  through micro-keyed StageChannels. The last stage
//                  slices per-request logits out of the batch, stamps
//                  completion timestamps, and releases the slots.
//
// Dispatch uses the training runtime's lane/priority rule: lane = stage,
// forwards at priority = micro id, admission at kAdmissionPriorityBase + m
// on lane 0. A free thread starts the smallest priority across idle lanes,
// so admission runs exactly in realized lane-0 idle gaps and, when a
// thread must choose, yields to a runnable forward on another lane — and
// because
// admissions are chained (Admit(m+1) depends on Admit(m)), a blocking pop
// can only start when lane 0 has no runnable forward, and no new lane-0
// forward can become ready until it returns: queue waits never block
// compute. stage_threads > 1 is safe under LIVE traffic too:
// ThreadPool::parallel_for's chunk-claiming design means a forward's
// data-parallel fan-out only ever executes its own chunks (never an
// unrelated queued task like a blocking admission pump), and
// RequestQueue::wait_pop PF_CHECKs it is never called from inside a
// chunk. (Historically the help-drain design forced a stage_threads = 1
// pin for live serving.)
//
// In-flight gating: Admit(m) additionally depends on the completion of
// micro m - max_inflight, bounding slot usage to max_batch · max_inflight
// sequences. BatchPolicy::kStatic forces max_inflight = 1 and full-batch
// admission — the drain-between-batches baseline the bench compares
// continuous batching against.
//
// Determinism contract (pinned in tests/test_serving.cpp): every forward
// op is row/sequence-independent, so a request's logits do not depend on
// its batch composition, slot, worker count, or stage count — replaying a
// fixed arrival trace yields bitwise-identical per-request outputs, equal
// to a serial one-request-at-a-time BertModel::forward.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/comm/stage_channel.h"
#include "src/common/task_executor.h"
#include "src/nn/stage_partition.h"
#include "src/serve/batcher.h"
#include "src/serve/request_queue.h"
#include "src/trace/timeline.h"

namespace pf {

// Admission rides above every forward priority (forwards use priority =
// micro id), same tier idiom as the training runtime's K-FAC base.
inline constexpr long kAdmissionPriorityBase = 1L << 20;

struct ServingEngineConfig {
  int n_stages = 2;
  // Sequence slots per micro-batch.
  std::size_t max_batch = 4;
  // Micros concurrently in the pipeline; 0 = n_stages + 1 (full pipe plus
  // one forming). BatchPolicy::kStatic overrides this to 1.
  int max_inflight = 0;
  // Pool worker threads (the calling thread always participates; 0 = a
  // deterministic serial run on the caller).
  int workers = 0;
  // Threads per stage forward (ExecContext). Bitwise-neutral, and safe
  // under live traffic at any value (see file comment).
  int stage_threads = 1;
  BatchPolicy policy = BatchPolicy::kContinuous;
};

// Per-request accounting. Timestamps are seconds relative to run() entry
// (enqueue may be negative for requests queued before the run started).
struct RequestRecord {
  std::uint64_t id = 0;
  int micro = -1;  // micro-batch that served the request
  int slot = -1;   // sequence slot it occupied
  double enqueue = 0.0;
  double admit = 0.0;
  double complete = 0.0;
  BertInferOutput output;  // this request's rows only
  double latency() const { return complete - enqueue; }
};

struct LatencyStats {
  std::size_t n = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double mean = 0.0, max = 0.0;
};

// Nearest-rank p50/p95/p99 (common/stats.h), mean and max.
LatencyStats compute_latency_stats(const std::vector<double>& latencies);

struct ServingReport {
  std::vector<RequestRecord> records;  // sorted by request id
  LatencyStats latency;                // over records[i].latency()
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;  // completed requests / wall_seconds
  std::size_t n_micros = 0;
  std::size_t admitted_total = 0;
  // Requests admitted while >= 1 micro was still in flight — the
  // continuous-batching signature (always 0 under BatchPolicy::kStatic).
  std::size_t admitted_while_in_flight = 0;
  // Of those, admissions into a slot a previous request had occupied.
  std::size_t slots_refilled_in_flight = 0;
  std::size_t deadline_misses = 0;
  // Realized execution trace: one lane per stage; admission intervals on
  // lane 0 (WorkKind::kAdmission counts as idle in utilization).
  Timeline timeline{1};
};

class ServingEngine {
 public:
  // Non-owning view over `model` (same contract as BertStagePartition:
  // the model must outlive the engine; weights are shared with training).
  ServingEngine(BertModel& model, const ServingEngineConfig& cfg);

  // Drains `queue` (until closed and empty) and returns the report.
  // Callable repeatedly; each call is an independent serving run.
  ServingReport run(RequestQueue& queue);

  const ServingEngineConfig& config() const { return cfg_; }

 private:
  // tests/test_serving.cpp wraps a boundary channel to pin an interleaving.
  friend struct ServingEngineTestAccess;
  struct RunState;

  void add_admission(TaskExecutor& ex, RunState& rs, RequestQueue& queue,
                     int micro, std::vector<std::size_t> deps);
  void admit(TaskExecutor& ex, RunState& rs, RequestQueue& queue, int micro);
  void complete_micro(RunState& rs, int micro, const BertInferOutput& out);

  ServingEngineConfig cfg_;
  std::size_t inflight_ = 1;  // effective max in-flight micros
  std::size_t seq_len_ = 0;
  BertStagePartition partition_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ExecContext> stage_ctx_;
  std::vector<std::unique_ptr<Channel>> fwd_ch_;  // s -> s+1
};

}  // namespace pf
