// pfbench worker: runs ONE workload in this (fresh) process and prints one
// JSON line of raw measurements for run.py to aggregate.
//
//   pfbench_worker --workload train-kfac|train-lamb-mp2 --seed N
//                  --seconds S --trace 0|1 --t-spawn T
//
// S is this process's share of the run's measuring time; T is the
// CLOCK_MONOTONIC second at which run.py spawned the process (set-up time
// is measured from it). Everything is driven through the library's public
// entry points — PipelineRuntime::step(), run_multiproc(), ServingEngine::
// run() — and each layer's numbers are read from public accessors or timed
// around direct calls; the library itself is not instrumented.
//
// Output (last stdout line): {"attempted", "failed", "errors", "values",
// "layers", "samples", "context"}. "values" holds the end-to-end scalars,
// "samples" raw timing samples that run.py turns into percentiles (one
// percentile implementation, in run.py), "layers" per-layer scalars of a
// traced process.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "pfbench/open_loop.h"
#include "src/comm/shm_ring.h"
#include "src/comm/stage_channel.h"
#include "src/comm/tensor_wire.h"
#include "src/comm/transport_channel.h"
#include "src/common/cpu_features.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/gemm.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/serve/serving_engine.h"
#include "src/train/multiproc.h"
#include "src/train/pipeline_runtime.h"
#include "src/train/trainer.h"

namespace {

using namespace pf;

// --- Workload shapes (README.md explains each choice) ----------------------
constexpr std::size_t kMicroBatch = 8;  // sequences per micro-batch
constexpr int kMicros = 8;              // micro-batches per step
constexpr std::size_t kSeqsPerStep = kMicroBatch * kMicros;
constexpr std::size_t kWarmupSteps = 3;  // untimed; the bitwise-checked steps
// Timed steps per process, at least: four processes then pool the 100 step
// times a p90 needs (ten beyond it).
constexpr std::size_t kMinTimedSteps = 25;
constexpr int kLossFrom = 10;  // loss_end = mean loss of timed steps
constexpr int kLossTo = 20;    //   [kLossFrom, kLossTo)
constexpr std::size_t kLrHorizon = 10000;
// train-lamb-mp2 runs a step count fixed before the fork: its share of the
// measuring time at this nominal rate (about the rate of a 4-vCPU x86 VM),
// never fewer than kMinTimedSteps.
constexpr double kMp2NominalStepsPerSecond = 7.5;
// The serving probe (traced train-kfac runs): a 300-request trace replayed
// 4 times, then 300 open-loop requests at 300 req/s; four kept processes
// pool the 1200 lateness samples a p99 needs.
constexpr std::size_t kSaturationRequests = 300;
constexpr std::size_t kReplays = 4;
constexpr std::size_t kOpenRequests = 300;
constexpr double kOpenLoopRate = 300.0;  // requests/s
// The open loop is invalid (its load was not offered as stated) when the
// generator runs behind schedule most of the time: median lateness over
// 1 ms. An isolated stall is not — requests are timed from their due time,
// so a stall already shows in latency.
constexpr double kMaxMedianLateMs = 1.0;
constexpr std::uint64_t kCheckEvery = 97;  // served logits checked

BertConfig bench_bert() {
  BertConfig cfg;
  cfg.vocab = 48;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.n_heads = 4;
  cfg.n_layers = 4;
  cfg.seq_len = 32;
  return cfg;
}

PolyWarmupSchedule lr_schedule() {
  return PolyWarmupSchedule(1e-2, 0, kLrHorizon);
}

double now() { return now_seconds(); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Restricts this process (and every thread it starts afterwards) to the
// first `n` CPUs it may run on. Returns the number of CPUs kept.
int pin_to_cpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  cpu_set_t keep;
  CPU_ZERO(&keep);
  int kept = 0;
  for (int c = 0; c < CPU_SETSIZE && kept < n; ++c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &keep);
      ++kept;
    }
  return sched_setaffinity(0, sizeof keep, &keep) == 0 ? kept : 0;
}

std::size_t live_threads() {
  std::size_t n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d))
      if (e->d_name[0] != '.') ++n;
    closedir(d);
  }
  return n;
}

// A fixed loop owned by the benchmark: a dependent integer + FP chain whose
// work never changes, so its time tracks only the machine's speed.
std::vector<double> host_ref_ms_samples() {
  std::vector<double> ms;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = now();
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    double x = 1.0;
    for (int i = 0; i < 1000000; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      x = x * 0.999999 + static_cast<double>(s >> 60);
    }
    sink = x;
    ms.push_back((now() - t0) * 1e3);
  }
  (void)sink;
  return ms;
}

// --- Output ----------------------------------------------------------------
struct Output {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> values;
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> context;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void append(const std::string& name, const std::vector<double>& xs) {
    auto& dst = samples[name];
    dst.insert(dst.end(), xs.begin(), xs.end());
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string json_object(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_string(k) + ":" + fmt(v);
  }
  return out + "}";
}

void print_output(const Output& o) {
  std::string errors = "[";
  for (const auto& e : o.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_string(e);
  }
  errors += "]";
  const std::string line =
      "{\"attempted\":" + std::to_string(o.attempted) +
      ",\"failed\":" + std::to_string(o.failed) + ",\"errors\":" + errors +
      ",\"values\":" + json_object(o.values, json_number) +
      ",\"layers\":" + json_object(o.layers, json_number) +
      ",\"samples\":" +
      json_object(o.samples,
                  [](const std::vector<double>& xs) {
                    std::string s = "[";
                    for (std::size_t i = 0; i < xs.size(); ++i) {
                      if (i) s += ",";
                      s += json_number(xs[i]);
                    }
                    return s + "]";
                  }) +
      ",\"context\":" + json_object(o.context, json_string) + "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// --- Shared workload pieces ------------------------------------------------
struct Data {
  SyntheticCorpus corpus;
  MlmBatcher batcher;
  Data(const BertConfig& cfg, std::uint64_t seed)
      : corpus([&] {
          CorpusConfig cc;
          cc.vocab = cfg.vocab;
          cc.seed = seed;
          return cc;
        }()),
        batcher(corpus, [&] {
          MlmBatcherConfig bc;
          bc.seq_len = cfg.seq_len;
          return bc;
        }()) {}
};

KfacOptimizerOptions kfac_options() {
  KfacOptimizerOptions o;
  o.inverse_interval = 3;  // curvature every step, inversion every 3rd
  o.per_micro_curvature = true;
  return o;
}

// Losses of the serial Trainer on the same seed — the repo's bitwise
// reference for every pipelined run.
std::vector<double> serial_losses(std::uint64_t seed, bool kfac,
                                  std::size_t steps) {
  const BertConfig cfg = bench_bert();
  Data data(cfg, seed);
  Rng rng(seed);
  BertModel model(cfg, rng);
  TrainerConfig tc;
  tc.batch_size = kMicroBatch;
  tc.accumulation_steps = static_cast<std::size_t>(kMicros);
  tc.total_steps = steps;
  tc.schedule = lr_schedule();
  tc.data_seed = seed;
  std::unique_ptr<Optimizer> opt;
  if (kfac)
    opt = std::make_unique<KfacOptimizer>(
        model.kfac_linears(), std::make_unique<Lamb>(), kfac_options());
  else
    opt = std::make_unique<Lamb>();
  Trainer trainer(model, data.batcher, std::move(opt), tc);
  return trainer.run().loss;
}

void check_losses(Output& out, const std::vector<double>& got,
                  const std::vector<double>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i] != want[i])
      out.fail("loss of step " + std::to_string(i) +
               " differs from the serial Trainer");
  }
}

double mean_loss(Output& out, const std::vector<double>& timed) {
  if (timed.size() < static_cast<std::size_t>(kLossTo)) {
    out.fail("fewer than " + std::to_string(kLossTo) + " timed steps");
    return 0.0;
  }
  double sum = 0.0;
  for (int t = kLossFrom; t < kLossTo; ++t)
    sum += timed[static_cast<std::size_t>(t)];
  return sum / (kLossTo - kLossFrom);
}

// Round-trip/2 samples (µs) of a boundary-sized tensor ping-ponged between
// two threads over a channel pair — the send/recv path stage handoffs take.
std::vector<double> ping_pong_us(Channel& ab, Channel& ba, std::size_t rows,
                                 std::size_t cols, int iters) {
  const int warmup = 50;
  const int total = iters + warmup;
  // If the echo fails, the main loop's own recv times out and throws; the
  // echo thread only has to end without terminating the process.
  std::thread echo([&] {
    try {
      for (int i = 0; i < total; ++i) ba.send(i, ab.recv(i, 60.0));
    } catch (const std::exception&) {
    }
  });
  Matrix payload(rows, cols, 1.0);
  std::vector<double> us;
  for (int i = 0; i < total; ++i) {
    const double t0 = now();
    ab.send(i, std::move(payload));
    payload = ba.recv(i, 60.0);
    if (i >= warmup) us.push_back((now() - t0) * 0.5e6);
  }
  echo.join();
  return us;
}

// Direct calls into single layers, timed by the benchmark (traced runs).
void probe_layers(Output& out, const MlmBatcher& batcher, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<double> ms;
  for (int i = 0; i < 200; ++i) {
    const double t0 = now();
    const BertBatch b = batcher.next_batch(kMicroBatch, rng);
    ms.push_back((now() - t0) * 1e3);
    if (b.ids.empty()) out.fail("empty batch");
  }
  out.append("data.batch_ms", ms);

  // The FFN's first linear at the micro size: 256 tokens x 64 -> 128.
  const Matrix a = Matrix::randn(kMicroBatch * 32, 64, rng);
  const Matrix w = Matrix::randn(64, 128, rng);
  std::vector<double> gflops;
  for (int i = 0; i < 300; ++i) {
    const double t0 = now();
    const Matrix c = matmul(a, w, 1);
    const double dt = now() - t0;
    if (c.rows() != a.rows()) out.fail("gemm shape");
    gflops.push_back(2.0 * 256 * 64 * 128 / dt / 1e9);
  }
  out.append("linalg.gemm_gflops", gflops);

  // K-FAC factor inversions at the model's factor sizes (d_model + 1 and
  // d_ff + 1 with the bias row folded in).
  auto spd = [&rng](std::size_t n) {
    const Matrix x = Matrix::randn(2 * n, n, rng);
    Matrix m = matmul_tn(x, x, 1);
    add_diagonal(m, 1e-3);
    return m;
  };
  const Matrix f65 = spd(65), f129 = spd(129);
  ms.clear();
  for (int i = 0; i < 40; ++i) {
    const double t0 = now();
    const Matrix i65 = spd_inverse(f65, 0.0, 1);
    const Matrix i129 = spd_inverse(f129, 0.0, 1);
    ms.push_back((now() - t0) * 1e3);
    if (i65.rows() != 65 || i129.rows() != 129) out.fail("inverse shape");
  }
  out.append("linalg.chol_inv_ms", ms);

  // Boundary handoff at the boundary tensor size (micro tokens x d_model).
  const std::size_t rows = kMicroBatch * 32, cols = 64;
  StageChannel mu_ab("probe[a->b]"), mu_ba("probe[b->a]");
  out.append("comm.handoff_us", ping_pong_us(mu_ab, mu_ba, rows, cols, 400));
  const std::size_t slot = wire_bytes(rows, cols);
  SharedRegion reg_ab(ShmRing::required_bytes(2, slot));
  SharedRegion reg_ba(ShmRing::required_bytes(2, slot));
  TransportChannel sh_ab("probe-ring[a->b]",
                         ShmRing::create(reg_ab.data(), 2, slot));
  TransportChannel sh_ba("probe-ring[b->a]",
                         ShmRing::create(reg_ba.data(), 2, slot));
  out.append("comm.shm_handoff_us", ping_pong_us(sh_ab, sh_ba, rows, cols, 400));
}

// --- serving probe ---------------------------------------------------------
std::vector<InferRequest> make_requests(std::size_t n, std::uint64_t first_id,
                                        Rng& rng, const BertConfig& cfg) {
  std::vector<InferRequest> rs(n);
  for (std::size_t i = 0; i < n; ++i) {
    rs[i].id = first_id + i;
    const std::size_t len = 1 + rng.uniform_int(cfg.seq_len);
    for (std::size_t t = 0; t < len; ++t)
      rs[i].ids.push_back(static_cast<int>(rng.uniform_int(cfg.vocab)));
  }
  return rs;
}

// Every request completed once; every kCheckEvery-th request's logits equal
// a serial one-request BertModel forward, bit for bit.
void check_served(Output& out, BertModel& model,
                  const std::vector<InferRequest>& sent,
                  const ServingReport& rep) {
  out.attempted += sent.size();
  if (rep.records.size() != sent.size())
    out.fail("requests dropped: " + std::to_string(sent.size()) + " sent, " +
             std::to_string(rep.records.size()) + " served");
  const std::size_t n = std::min(sent.size(), rep.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    const RequestRecord& rec = rep.records[i];
    if (rec.id != sent[i].id) {
      out.fail("request " + std::to_string(sent[i].id) + " not served");
      continue;
    }
    if (rec.id % kCheckEvery != 0) continue;
    const BertInferOutput want = model.forward(
        make_inference_batch({sent[i]}, model.config().seq_len, 0), false);
    const Matrix& got = rec.output.mlm_logits;
    bool same = got.rows() == want.mlm_logits.rows() &&
                got.cols() == want.mlm_logits.cols() &&
                rec.output.nsp_logits.size() == want.nsp_logits.size();
    for (std::size_t j = 0; same && j < got.size(); ++j)
      same = got.data()[j] == want.mlm_logits.data()[j];
    for (std::size_t j = 0; same && j < want.nsp_logits.size(); ++j)
      same = rec.output.nsp_logits.data()[j] == want.nsp_logits.data()[j];
    if (!same)
      out.fail("request " + std::to_string(rec.id) +
               " logits differ from the serial forward");
  }
}

// The serving layer, driven through ServingEngine::run() after a traced
// process's timed phase: a fixed trace replayed at saturation a few times
// (batch fill, slot refills, admission time), then an open loop at a fixed
// absolute rate with every request timed from its due time (queue and
// service time, generator lateness). Every request must be served once, and
// sampled logits must equal a serial forward bit for bit.
void probe_serving(Output& out, std::uint64_t seed) {
  // One CPU each for the engine's two threads and the generator. On a VM a
  // thread parked on an idle vCPU wakes only when the host schedules that
  // vCPU again, so the fewer vCPUs the open loop spreads over, the fewer
  // such wake-ups sit in its tail; on two the generator itself contends
  // with the engine and pushes late.
  out.context["serve_cpus"] = std::to_string(pin_to_cpus(3));
  const BertConfig cfg = bench_bert();
  Rng rng(seed);
  BertModel model(cfg, rng);
  ServingEngineConfig ec;
  ec.n_stages = 2;
  ec.max_batch = 4;
  ec.workers = 1;  // + the caller + the generator thread
  ec.stage_threads = 1;
  ServingEngine engine(model, ec);

  Rng trace_rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto sat = make_requests(kSaturationRequests, 0, trace_rng, cfg);
  double admission = 0.0, micros = 0.0, admitted = 0.0, refills = 0.0;
  for (std::size_t r = 0; r < kReplays; ++r) {
    RequestQueue q;
    q.push_all(sat);
    q.close();
    const ServingReport rep = engine.run(q);
    check_served(out, model, sat, rep);
    for (const Interval& iv : rep.timeline.all_intervals())
      if (iv.kind == WorkKind::kAdmission) admission += iv.duration();
    micros += static_cast<double>(rep.n_micros);
    admitted += static_cast<double>(rep.admitted_total);
    refills += static_cast<double>(rep.slots_refilled_in_flight);
  }
  out.layers["serve.admission_s"] = admission / micros;  // per micro-batch
  out.layers["serve.batch_fill"] =
      admitted / (micros * static_cast<double>(ec.max_batch));
  out.layers["serve.refills_in_flight"] =  // per replay of the trace
      refills / static_cast<double>(kReplays);

  const auto open = make_requests(kOpenRequests, sat.size(), trace_rng, cfg);
  RequestQueue q;
  pfbench::OpenLoopGenerator gen(q, open, now() + 0.005, kOpenLoopRate);
  const ServingReport rep = engine.run(q);
  gen.join();
  if (!gen.error().empty()) out.fail("generator: " + gen.error());
  check_served(out, model, open, rep);
  std::vector<double> queue_ms, service_ms, late_ms;
  for (const RequestRecord& r : rep.records) {
    queue_ms.push_back((r.admit - r.enqueue) * 1e3);
    service_ms.push_back((r.complete - r.admit) * 1e3);
  }
  for (const double l : gen.lateness_seconds()) late_ms.push_back(l * 1e3);
  std::vector<double> sorted = late_ms;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  if (sorted[sorted.size() / 2] > kMaxMedianLateMs)
    out.fail("the generator lagged: median lateness " +
             std::to_string(sorted[sorted.size() / 2]) + " ms");
  out.append("serve.queue_ms", queue_ms);
  out.append("serve.service_ms", service_ms);
  out.append("gen.late_ms", late_ms);
}

// --- train-kfac --------------------------------------------------------------
// Per-kind accounting of executed step timelines: every interval's duration
// goes to its kind's bucket, Timeline::gaps() supplies the idle time, and the
// two must cover lanes x executed span (the residual is reported).
struct StepAccounting {
  std::size_t steps = 0;
  std::map<std::string, double> busy;  // seconds summed over steps
  double idle = 0, util = 0, bubble = 0, tail = 0, overhead = 0;
  double residual_max = 0;
  double peak_stash = 0, recycled = 0, fresh = 0;

  static const char* bucket(WorkKind k) {
    switch (k) {
      case WorkKind::kForward: return "nn.fwd_s";
      case WorkKind::kBackward: return "nn.bwd_s";
      case WorkKind::kBackwardWeight: return "nn.bwd_w_s";
      case WorkKind::kCurvatureA:
      case WorkKind::kCurvatureB:
      case WorkKind::kSyncCurvature: return "kfac.curv_s";
      case WorkKind::kInversionA:
      case WorkKind::kInversionB: return "kfac.inv_s";
      case WorkKind::kPrecondition: return "kfac.precond_s";
      case WorkKind::kOptimizerUpdate: return "optim.update_s";
      default: return "pipeline.other_s";
    }
  }
  static bool is_pipeline_op(WorkKind k) {
    return k == WorkKind::kForward || k == WorkKind::kBackward ||
           k == WorkKind::kBackwardWeight;
  }

  void add(const Timeline& tl, double wall,
           const std::vector<PipelineRuntime::StageMemoryStats>& mem) {
    const double t0 = tl.earliest_start(), t1 = tl.makespan();
    const double lanes_span = static_cast<double>(tl.n_devices()) * (t1 - t0);
    double covered = 0.0, ops = 0.0, last_op_end = t0;
    for (const Interval& iv : tl.all_intervals()) {
      busy[bucket(iv.kind)] += iv.duration();
      covered += iv.duration();
      if (is_pipeline_op(iv.kind)) {
        ops += iv.duration();
        last_op_end = std::max(last_op_end, iv.end);
      }
    }
    double gaps = 0.0;
    for (std::size_t d = 0; d < tl.n_devices(); ++d)
      gaps += tl.bubble_time(d, t0, t1);
    residual_max = std::max(
        residual_max, std::fabs(covered + gaps - lanes_span) / lanes_span);
    idle += gaps;
    util += tl.utilization();
    bubble += 1.0 - ops / lanes_span;
    tail += t1 - last_op_end;
    overhead += wall - (t1 - t0);
    for (const auto& m : mem) {
      peak_stash = std::max(peak_stash,
                            static_cast<double>(m.peak_stash_bytes) / 1048576.0);
      recycled += static_cast<double>(m.arena_recycled);
      fresh += static_cast<double>(m.arena_fresh);
    }
    ++steps;
  }

  void emit(Output& out) const {
    const double n = static_cast<double>(steps);
    for (const char* k :
         {"nn.fwd_s", "nn.bwd_s", "nn.bwd_w_s", "kfac.curv_s", "kfac.inv_s",
          "kfac.precond_s", "optim.update_s", "pipeline.other_s"})
      out.layers[k] = busy.count(k) ? busy.at(k) / n : 0.0;
    out.layers["pipeline.idle_s"] = idle / n;
    out.layers["pipeline.util"] = util / n;
    out.layers["pipeline.bubble_frac"] = bubble / n;
    out.layers["pipeline.kfac_tail_ms"] = tail / n * 1e3;
    out.layers["train.overhead_ms"] = overhead / n * 1e3;
    out.layers["trace.accounting_residual"] = residual_max;
    out.layers["common.peak_stash_mib"] = peak_stash;
    out.layers["common.arena_recycled"] = recycled / n;
    out.layers["common.arena_fresh"] = fresh / n;
  }
};

// Accounting residual above which a traced step counts as failed: the
// per-kind busy time plus the idle gaps must tile lanes x executed span.
constexpr double kMaxAccountingResidual = 1e-6;

void run_train_kfac(Output& out, std::uint64_t seed, double seconds,
                    bool trace, double t_spawn) {
  const BertConfig cfg = bench_bert();
  Data data(cfg, seed);
  Rng rng(seed);
  BertModel model(cfg, rng);
  PipelineRuntimeConfig pc;
  pc.schedule = "1f1b";
  pc.n_stages = 4;
  pc.n_micro = kMicros;
  pc.micro_batch_size = kMicroBatch;
  pc.total_steps = kLrHorizon;
  pc.lr = lr_schedule();
  pc.data_seed = seed;
  pc.workers = 2;  // + the main thread = 3 executor threads; 1 core idle
  pc.stage_threads = 1;
  pc.use_kfac = true;
  pc.kfac = kfac_options();
  PipelineRuntime rt(model, data.batcher, pc);
  out.context["transport"] = rt.transport();

  std::vector<double> warm, timed, step_ms, rates;
  for (std::size_t t = 0; t < kWarmupSteps; ++t) {
    warm.push_back(rt.step().total);
    ++out.attempted;
  }
  StepAccounting acc;
  const double t_first = now();
  out.values["setup_s"] = t_first - t_spawn;
  while (timed.size() < kMinTimedSteps || now() - t_first < seconds) {
    const double t0 = now();
    const double loss = rt.step().total;
    const double wall = now() - t0;
    ++out.attempted;
    if (!std::isfinite(loss)) out.fail("non-finite loss");
    timed.push_back(loss);
    step_ms.push_back(wall * 1e3);
    rates.push_back(static_cast<double>(kSeqsPerStep) / wall);
    if (trace) acc.add(rt.last_executed_timeline(), wall, rt.memory_stats());
  }
  out.values["peak_rss_mib"] = peak_rss_mib();
  out.values["loss_end"] = mean_loss(out, timed);
  out.append("latency_ms", step_ms);
  out.append("throughput_per_s", rates);

  check_losses(out, warm, serial_losses(seed, /*kfac=*/true, kWarmupSteps));
  if (trace) {
    acc.emit(out);
    if (acc.residual_max > kMaxAccountingResidual)
      out.fail("per-kind accounting does not close to the executed span");
    probe_layers(out, data.batcher, seed);
    probe_serving(out, seed);
  }
}

// --- train-lamb-mp2 --------------------------------------------------------
// The forked children are opaque to the parent except through the shared
// result region run_multiproc owns. The benchmark reaches inside through a
// public seam instead: the per-stage base optimizer is built by a factory
// in each child, so an Optimizer decorator stamps the steady clock (which
// is CLOCK_MONOTONIC, coherent across fork) into a MAP_SHARED page at every
// stage update — one timestamp per step per child, from which per-step
// wall times follow.
struct StampPage {
  static constexpr int kSlots = 4;
  static constexpr std::size_t kMaxSteps = 4096;
  std::atomic<int> next_slot{0};
  double factory_time[kSlots] = {};
  double update_busy[kSlots] = {};
  double peak_rss_mib[kSlots] = {};
  std::size_t steps[kSlots] = {};
  double stamp[kSlots][kMaxSteps] = {};
};
static_assert(std::atomic<int>::is_always_lock_free);

class StampedOptimizer : public Optimizer {
 public:
  StampedOptimizer(std::unique_ptr<Optimizer> inner, StampPage* page)
      : inner_(std::move(inner)), page_(page), slot_(page->next_slot++) {
    PF_CHECK(slot_ < StampPage::kSlots) << "more stages than stamp slots";
    page_->factory_time[slot_] = now();
  }
  void step(const std::vector<Param*>& params, double lr) override {
    const double t0 = now();
    inner_->step(params, lr);
    const double t1 = now();
    std::size_t& n = page_->steps[slot_];
    PF_CHECK(n < StampPage::kMaxSteps) << "stamp page full";
    page_->stamp[slot_][n++] = t1;
    page_->update_busy[slot_] += t1 - t0;
    page_->peak_rss_mib[slot_] = peak_rss_mib();
  }
  void on_micro_batch() override { inner_->on_micro_batch(); }

 private:
  std::unique_ptr<Optimizer> inner_;
  StampPage* page_;
  int slot_;
};

std::string ring_suffix(const std::string& channel) {
  // "fwd[0->1]" -> "fwd_0_1": metric names are [A-Za-z0-9_.-]+.
  std::string s;
  for (const char c : channel)
    if (std::isalnum(static_cast<unsigned char>(c)))
      s += c;
    else if (!s.empty() && s.back() != '_')
      s += '_';
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

void run_train_lamb_mp2(Output& out, std::uint64_t seed, double seconds,
                        bool trace, double t_spawn) {
  const BertConfig cfg = bench_bert();
  Data data(cfg, seed);
  Rng rng(seed);
  BertModel model(cfg, rng);
  const std::size_t timed_steps = std::max<std::size_t>(
      kMinTimedSteps,
      static_cast<std::size_t>(std::ceil(seconds * kMp2NominalStepsPerSecond)));
  const std::size_t steps = kWarmupSteps + timed_steps;

  SharedRegion region(sizeof(StampPage));
  StampPage* page = new (region.data()) StampPage();
  MultiprocConfig mc;
  mc.runtime.schedule = "zb-h1";
  mc.runtime.n_stages = 2;
  mc.runtime.n_micro = kMicros;
  mc.runtime.micro_batch_size = kMicroBatch;
  mc.runtime.total_steps = steps;
  mc.runtime.lr = lr_schedule();
  mc.runtime.data_seed = seed;
  mc.runtime.stage_threads = 1;
  mc.runtime.use_kfac = false;
  mc.runtime.base_optimizer = [page] {
    return std::make_unique<StampedOptimizer>(std::make_unique<Lamb>(), page);
  };
  out.context["transport"] = "shm";

  // Fork before any thread exists: nothing above starts one.
  if (live_threads() != 1) out.fail("threads exist before fork");
  const double t_call = now();
  const MultiprocResult res = run_multiproc(model, data.batcher, mc);
  const double parent_rss = peak_rss_mib();
  out.attempted += steps;

  const int n_slots = page->next_slot.load();
  if (n_slots != res.n_processes) out.fail("one stage per child expected");
  std::vector<double> step_end(steps, 0.0);
  double fork_s = 0.0, update_s = 0.0, rss = parent_rss;
  for (int k = 0; k < n_slots; ++k) {
    if (page->steps[k] != steps) out.fail("a child missed step stamps");
    for (std::size_t t = 0; t < std::min(steps, page->steps[k]); ++t)
      step_end[t] = std::max(step_end[t], page->stamp[k][t]);
    fork_s = std::max(fork_s, page->factory_time[k] - t_call);
    update_s += page->update_busy[k];
    rss += page->peak_rss_mib[k];
  }
  page->~StampPage();

  const double t_first = step_end[kWarmupSteps - 1];
  std::vector<double> step_ms, rates;
  for (std::size_t t = kWarmupSteps; t < steps; ++t) {
    const double wall = step_end[t] - step_end[t - 1];
    step_ms.push_back(wall * 1e3);
    rates.push_back(static_cast<double>(kSeqsPerStep) / wall);
  }
  const std::vector<double>& loss = res.trace.loss;
  for (const double l : loss)
    if (!std::isfinite(l)) out.fail("non-finite loss");
  out.values["setup_s"] = t_first - t_spawn;
  out.values["peak_rss_mib"] = rss;  // parent + every child at its peak
  out.values["loss_end"] = mean_loss(
      out, std::vector<double>(loss.begin() + std::min<std::size_t>(
                                                   kWarmupSteps, loss.size()),
                               loss.end()));
  out.append("latency_ms", step_ms);
  out.append("throughput_per_s", rates);

  check_losses(out, loss, serial_losses(seed, /*kfac=*/false, kWarmupSteps));
  if (trace) {
    // The children expose no timeline, so the per-kind accounting replays
    // the same step plan in-process (one lane per stage, the same shm
    // rings) — whose losses must also match the forked run's bit for bit.
    Data replay_data(cfg, seed);
    Rng replay_rng(seed);
    BertModel replay_model(cfg, replay_rng);
    PipelineRuntimeConfig pc = mc.runtime;
    pc.base_optimizer = nullptr;
    pc.transport = "shm";
    pc.workers = 1;
    PipelineRuntime rt(replay_model, replay_data.batcher, pc);
    StepAccounting acc;
    for (std::size_t t = 0; t < kWarmupSteps + 10 && t < loss.size(); ++t) {
      const double t0 = now();
      const double l = rt.step().total;
      const double wall = now() - t0;
      if (l != loss[t])
        out.fail("in-process replay of step " + std::to_string(t) +
                 " differs from the forked run");
      if (t >= kWarmupSteps)
        acc.add(rt.last_executed_timeline(), wall, rt.memory_stats());
    }
    acc.emit(out);
    if (acc.residual_max > kMaxAccountingResidual)
      out.fail("per-kind accounting does not close to the executed span");
    out.layers["multiproc.fork_s"] = fork_s;
    out.layers["optim.update_s"] = update_s / static_cast<double>(steps);
    for (const MultiprocHandoff& h : res.handoff) {
      const std::string r = ring_suffix(h.channel);
      out.layers["comm.ring_waits." + r] =
          static_cast<double>(h.waits) / static_cast<double>(steps);
      out.layers["comm.ring_wait_us_p50." + r] = h.wait_p50 * 1e6;
      out.layers["comm.ring_wait_us_p95." + r] = h.wait_p95 * 1e6;
    }
    probe_layers(out, data.batcher, seed);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  double t_spawn = -1.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--t-spawn") a.t_spawn = std::atof(v.c_str());
    else PF_CHECK(false) << "unknown argument " << k;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  // Hermetic: the only knobs src/ reads, cleared before anything is built.
  for (const char* knob : {"PF_TRANSPORT", "PF_SIMD_LEVEL", "PF_FORCE_SCALAR"})
    unsetenv(knob);
  const double t_main = now();
  Output out;
  try {
    const Args a = parse_args(argc, argv);
    const double t_spawn = a.t_spawn >= 0.0 ? a.t_spawn : t_main;
    out.context["simd"] = simd_level_name(active_simd_level());
    out.append("host.ref_ms", host_ref_ms_samples());
    if (a.workload == "train-kfac")
      run_train_kfac(out, a.seed, a.seconds, a.trace, t_spawn);
    else if (a.workload == "train-lamb-mp2")
      run_train_lamb_mp2(out, a.seed, a.seconds, a.trace, t_spawn);
    else
      PF_CHECK(false) << "unknown workload '" << a.workload << "'";
    out.append("host.ref_ms", host_ref_ms_samples());
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(e.what());
  }
  print_output(out);
  return 0;
}
