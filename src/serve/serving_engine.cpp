#include "src/serve/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/strings.h"

namespace pf {

namespace {

// Admission waits this long for requests before erroring (replay queues
// never wait; live producers that stall longer are a bug, same policy as
// StageChannel::recv).
constexpr double kAdmitTimeoutSeconds = 60.0;

}  // namespace

LatencyStats compute_latency_stats(const std::vector<double>& latencies) {
  LatencyStats s;
  s.n = latencies.size();
  if (latencies.empty()) return s;
  s.p50 = percentile_nearest_rank(latencies, 50.0);
  s.p95 = percentile_nearest_rank(latencies, 95.0);
  s.p99 = percentile_nearest_rank(latencies, 99.0);
  double sum = 0.0;
  for (const double x : latencies) {
    sum += x;
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(latencies.size());
  return s;
}

// Everything one run() touches from task bodies. Stats and per-micro state
// are guarded by `mu`; the task-id/meta vectors are written only by the
// (dep-serialized) admission chain and the pre-run main thread, and read
// after run() returns — the executor's own mutex carries the
// happens-before edges.
struct ServingEngine::RunState {
  RunState(std::size_t max_batch, std::size_t seq_len, std::size_t n_slots)
      : batcher(max_batch, seq_len, /*pad_id=*/0, n_slots) {}

  double epoch = 0.0;
  ContinuousBatcher batcher;

  struct TaskMeta {
    std::size_t lane = 0;
    WorkKind kind = WorkKind::kForward;
    int stage = -1;
    int micro = -1;
  };
  std::vector<TaskMeta> meta;           // indexed by task id
  std::vector<std::size_t> admit_task;  // indexed by micro
  std::vector<std::size_t> complete_task;  // last-stage forward, per micro
  std::vector<double> admit_time;       // per micro, seconds since epoch

  std::mutex mu;
  std::map<int, MicroBatch> micros;  // in flight, keyed by micro id
  std::size_t in_flight = 0;
  std::size_t n_micros = 0;
  std::size_t admitted_total = 0;
  std::size_t admitted_while_in_flight = 0;
  std::size_t slots_refilled_in_flight = 0;
  std::size_t deadline_misses = 0;
  std::vector<RequestRecord> records;
};

ServingEngine::ServingEngine(BertModel& model, const ServingEngineConfig& cfg)
    : cfg_(cfg),
      seq_len_(model.config().seq_len),
      partition_(model, cfg.n_stages) {
  PF_CHECK(cfg.n_stages >= 1);
  PF_CHECK(cfg.max_batch >= 1);
  PF_CHECK(cfg.max_inflight >= 0);
  PF_CHECK(cfg.workers >= 0);
  PF_CHECK(cfg.stage_threads >= 1);
  inflight_ = cfg.policy == BatchPolicy::kStatic
                  ? 1
                  : (cfg.max_inflight > 0
                         ? static_cast<std::size_t>(cfg.max_inflight)
                         : static_cast<std::size_t>(cfg.n_stages) + 1);
  pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(cfg.workers));
  for (int s = 0; s < cfg.n_stages; ++s)
    stage_ctx_.emplace_back(cfg.stage_threads, cfg.stage_threads, pool_.get());
  for (int s = 0; s + 1 < cfg.n_stages; ++s)
    fwd_ch_.push_back(
        std::make_unique<StageChannel>(format("serve-fwd[%d->%d]", s, s + 1)));
}

void ServingEngine::add_admission(TaskExecutor& ex, RunState& rs,
                                  RequestQueue& queue, int micro,
                                  std::vector<std::size_t> deps) {
  const std::size_t id = ex.add(
      [this, &ex, &rs, &queue, micro] { admit(ex, rs, queue, micro); },
      /*lane=*/0, kAdmissionPriorityBase + micro, std::move(deps));
  PF_ASSERT(id == rs.meta.size());
  rs.meta.push_back({0, WorkKind::kAdmission, /*stage=*/-1, micro});
  PF_ASSERT(rs.admit_task.size() == static_cast<std::size_t>(micro));
  rs.admit_task.push_back(id);
}

void ServingEngine::admit(TaskExecutor& ex, RunState& rs, RequestQueue& queue,
                          int micro) {
  const std::size_t want = cfg_.max_batch;
  std::vector<InferRequest> got =
      queue.wait_pop(want,
                     cfg_.policy == BatchPolicy::kStatic ? want : 1,
                     kAdmitTimeoutSeconds);
  // Empty means closed-and-drained: the admission chain ends here and the
  // graph drains (run() returns once in-flight forwards finish).
  if (got.empty()) return;

  const double t_admit = now_seconds() - rs.epoch;
  MicroBatch mb = rs.batcher.form(std::move(got));
  const std::size_t n_requests = mb.requests.size();
  {
    std::lock_guard<std::mutex> lock(rs.mu);
    rs.n_micros += 1;
    rs.admitted_total += n_requests;
    if (rs.in_flight > 0) {
      rs.admitted_while_in_flight += n_requests;
      for (const bool reused : mb.slot_reused)
        if (reused) ++rs.slots_refilled_in_flight;
    }
    ++rs.in_flight;
    PF_ASSERT(rs.admit_time.size() == static_cast<std::size_t>(micro));
    rs.admit_time.push_back(t_admit);
    rs.micros.emplace(micro, std::move(mb));
  }

  // Grow the graph: this micro's forward chain, then the next admission.
  const int S = cfg_.n_stages;
  std::size_t prev = rs.admit_task[static_cast<std::size_t>(micro)];
  for (int s = 0; s < S; ++s) {
    auto body = [this, &rs, micro, s] {
      const MicroBatch* mb_ptr;
      {
        std::lock_guard<std::mutex> lock(rs.mu);
        mb_ptr = &rs.micros.at(micro);  // map nodes are stable
      }
      Matrix in;
      if (s > 0) in = fwd_ch_[static_cast<std::size_t>(s - 1)]->take(micro);
      if (s + 1 < cfg_.n_stages) {
        Matrix out = partition_.stage(s).infer(mb_ptr->batch, std::move(in),
                                               stage_ctx_[static_cast<std::size_t>(s)]);
        fwd_ch_[static_cast<std::size_t>(s)]->send(micro, std::move(out));
      } else {
        BertInferOutput out;
        partition_.stage(s).infer(mb_ptr->batch, std::move(in),
                                  stage_ctx_[static_cast<std::size_t>(s)],
                                  &out);
        complete_micro(rs, micro, out);
      }
    };
    const std::size_t fid = ex.add(std::move(body),
                                   /*lane=*/static_cast<std::size_t>(s),
                                   /*priority=*/micro, {prev});
    PF_ASSERT(fid == rs.meta.size());
    rs.meta.push_back(
        {static_cast<std::size_t>(s), WorkKind::kForward, s, micro});
    prev = fid;
  }
  PF_ASSERT(rs.complete_task.size() == static_cast<std::size_t>(micro));
  rs.complete_task.push_back(prev);

  // Admit(m+1) waits for this admission (chain order) and, once
  // `inflight_` micros are out, for the oldest one's completion — the gate
  // that bounds slot usage.
  std::vector<std::size_t> deps = {rs.admit_task[static_cast<std::size_t>(micro)]};
  const long gate = static_cast<long>(micro) + 1 - static_cast<long>(inflight_);
  if (gate >= 0)
    deps.push_back(rs.complete_task[static_cast<std::size_t>(gate)]);
  add_admission(ex, rs, queue, micro + 1, std::move(deps));
}

void ServingEngine::complete_micro(RunState& rs, int micro,
                                   const BertInferOutput& out) {
  const double t = now_seconds() - rs.epoch;
  std::lock_guard<std::mutex> lock(rs.mu);
  const auto it = rs.micros.find(micro);
  PF_ASSERT(it != rs.micros.end());
  MicroBatch& mb = it->second;
  PF_ASSERT(out.mlm_logits.rows() == mb.requests.size() * seq_len_);
  PF_ASSERT(out.nsp_logits.rows() == mb.requests.size());
  for (std::size_t r = 0; r < mb.requests.size(); ++r) {
    RequestRecord rec;
    rec.id = mb.requests[r].id;
    rec.micro = micro;
    rec.slot = mb.slots[r];
    rec.enqueue = mb.requests[r].enqueue_seconds - rs.epoch;
    rec.admit = rs.admit_time[static_cast<std::size_t>(micro)];
    rec.complete = t;
    // Slice this request's rows out of the batch logits.
    rec.output.mlm_logits = Matrix(seq_len_, out.mlm_logits.cols());
    for (std::size_t q = 0; q < seq_len_; ++q) {
      const double* src = out.mlm_logits.row(r * seq_len_ + q);
      double* dst = rec.output.mlm_logits.row(q);
      for (std::size_t c = 0; c < out.mlm_logits.cols(); ++c) dst[c] = src[c];
    }
    rec.output.nsp_logits = Matrix(1, out.nsp_logits.cols());
    {
      const double* src = out.nsp_logits.row(r);
      double* dst = rec.output.nsp_logits.row(0);
      for (std::size_t c = 0; c < out.nsp_logits.cols(); ++c) dst[c] = src[c];
    }
    if (rec.latency() > mb.requests[r].deadline_seconds)
      ++rs.deadline_misses;
    rs.records.push_back(std::move(rec));
  }
  rs.batcher.release(mb);
  PF_ASSERT(rs.in_flight > 0);
  --rs.in_flight;
  rs.micros.erase(it);
}

ServingReport ServingEngine::run(RequestQueue& queue) {
  for (auto& ch : fwd_ch_) ch->clear();
  RunState rs(cfg_.max_batch, seq_len_, cfg_.max_batch * inflight_);
  rs.epoch = now_seconds();

  TaskExecutor ex(*pool_, static_cast<std::size_t>(cfg_.n_stages));
  add_admission(ex, rs, queue, /*micro=*/0, /*deps=*/{});
  ex.run();
  const double wall = now_seconds() - rs.epoch;

  PF_ASSERT(rs.in_flight == 0);
  ServingReport rep;
  rep.records = std::move(rs.records);
  std::sort(rep.records.begin(), rep.records.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.id < b.id;
            });
  std::vector<double> lat;
  lat.reserve(rep.records.size());
  for (const auto& r : rep.records) lat.push_back(r.latency());
  rep.latency = compute_latency_stats(lat);
  rep.wall_seconds = wall;
  rep.throughput_rps =
      rep.records.empty() ? 0.0
                          : static_cast<double>(rep.records.size()) / wall;
  rep.n_micros = rs.n_micros;
  rep.admitted_total = rs.admitted_total;
  rep.admitted_while_in_flight = rs.admitted_while_in_flight;
  rep.slots_refilled_in_flight = rs.slots_refilled_in_flight;
  rep.deadline_misses = rs.deadline_misses;

  // Realized timeline, same construction as the training runtime: per-lane
  // intervals sorted by wall-clock start.
  rep.timeline = Timeline(static_cast<std::size_t>(cfg_.n_stages));
  const auto& recs = ex.records();
  PF_ASSERT(recs.size() == rs.meta.size());
  std::vector<std::vector<std::size_t>> by_lane(
      static_cast<std::size_t>(cfg_.n_stages));
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (recs[i].executed) by_lane[rs.meta[i].lane].push_back(i);
  for (auto& ids : by_lane) {
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return recs[a].start < recs[b].start;
    });
    for (const std::size_t i : ids)
      rep.timeline.add(Interval{.device = rs.meta[i].lane,
                                .start = recs[i].start,
                                .end = recs[i].end,
                                .kind = rs.meta[i].kind,
                                .stage = rs.meta[i].stage,
                                .micro = rs.meta[i].micro});
  }
  return rep;
}

}  // namespace pf
