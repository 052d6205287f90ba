// Serving demo: drive the continuous-batching inference engine
// (src/serve/serving_engine.h) over a synthetic request stream and print
// the latency/throughput report plus the realized execution timeline.
//
//   $ ./example_serving_demo
//
// Every knob is an environment variable, validated up front:
//
//   PF_SERVE_STAGES    pipeline stages (default 2)
//   PF_SERVE_BATCH     max sequences per micro-batch (default 4)
//   PF_SERVE_WORKERS   pool worker threads (default 2; 0 = serial)
//   PF_SERVE_INFLIGHT  max micros in flight (default 0 = stages + 1)
//   PF_SERVE_REQUESTS  requests in the synthetic stream (default 32)
//   PF_SERVE_LOAD      offered load in requests/second (default 0 =
//                      replay: everything queued up front)
//   PF_SERVE_POLICY    "continuous" | "static" (default continuous)
//
// With PF_SERVE_LOAD > 0 a producer thread pushes live at that rate while
// the engine serves; otherwise the stream is replayed at saturation — the
// deterministic mode whose per-request logits are bitwise independent of
// stages/workers (tests/test_serving.cpp pins that grid).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/serve/serving_engine.h"
#include "src/trace/ascii_gantt.h"

namespace {

using namespace pf;

// Reads an integer env knob (env_int: a malformed value throws naming the
// variable); a value outside [lo, hi] aborts the same way, up front.
int env_int_in(const char* name, int def, int lo, int hi) {
  const int v = env_int(name, def);
  PF_CHECK(v >= lo && v <= hi)
      << name << "=" << v << " outside [" << lo << ", " << hi << "]";
  return v;
}

double env_double(const char* name, double def, double lo, double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return def;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  PF_CHECK(end != raw && *end == '\0')
      << name << "='" << raw << "' is not a number";
  PF_CHECK(v >= lo && v <= hi)
      << name << "=" << v << " outside [" << lo << ", " << hi << "]";
  return v;
}

int run() {
  // Validate every knob before building anything, so a typo fails fast
  // with the variable's name instead of deep in the engine.
  const int stages = env_int_in("PF_SERVE_STAGES", 2, 1, 4);
  const std::size_t max_batch =
      static_cast<std::size_t>(env_int_in("PF_SERVE_BATCH", 4, 1, 64));
  const int workers = env_int_in("PF_SERVE_WORKERS", 2, 0, 64);
  const int inflight = env_int_in("PF_SERVE_INFLIGHT", 0, 0, 64);
  const std::size_t n_requests =
      static_cast<std::size_t>(env_int_in("PF_SERVE_REQUESTS", 32, 1, 100000));
  const double load = env_double("PF_SERVE_LOAD", 0.0, 0.0, 1e9);
  const char* policy_raw = std::getenv("PF_SERVE_POLICY");
  const BatchPolicy policy =
      batch_policy_from_string(policy_raw != nullptr && policy_raw[0] != '\0'
                                   ? policy_raw
                                   : "continuous");
  std::fprintf(stderr,
               "serving_demo: stages=%d batch=%zu workers=%d inflight=%d "
               "requests=%zu load=%s policy=%s\n",
               stages, max_batch, workers, inflight, n_requests,
               load > 0.0 ? (std::to_string(load) + " req/s").c_str()
                          : "replay",
               batch_policy_name(policy));

  // A small BERT (4 layers so every PF_SERVE_STAGES in range divides it).
  BertConfig cfg;
  cfg.vocab = 48;
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.n_heads = 4;
  cfg.n_layers = 4;
  cfg.seq_len = 16;
  Rng rng(7);
  BertModel model(cfg, rng);

  ServingEngineConfig ec;
  ec.n_stages = stages;
  ec.max_batch = max_batch;
  ec.max_inflight = inflight;
  ec.workers = workers;
  ec.policy = policy;
  ServingEngine engine(model, ec);

  // Synthetic stream: deterministic tokens, varying lengths.
  Rng traffic(42);
  std::vector<InferRequest> trace;
  for (std::size_t i = 0; i < n_requests; ++i) {
    InferRequest r;
    r.id = i;
    const std::size_t len = 1 + traffic.next_u64() % cfg.seq_len;
    for (std::size_t t = 0; t < len; ++t)
      r.ids.push_back(static_cast<int>(traffic.next_u64() % cfg.vocab));
    trace.push_back(std::move(r));
  }

  RequestQueue queue;
  std::thread producer;
  if (load > 0.0) {
    producer = std::thread([&queue, &trace, load] {
      const auto gap = std::chrono::duration<double>(1.0 / load);
      for (const InferRequest& r : trace) {
        queue.push(r);
        std::this_thread::sleep_for(gap);
      }
      queue.close();
    });
  } else {
    queue.push_all(trace);
    queue.close();
  }
  const ServingReport rep = engine.run(queue);
  if (producer.joinable()) producer.join();

  PF_CHECK(rep.records.size() == n_requests)
      << "served " << rep.records.size() << " of " << n_requests;
  std::printf("served %zu requests in %zu micro-batches, %.3f s wall\n",
              rep.records.size(), rep.n_micros, rep.wall_seconds);
  std::printf("throughput          : %.1f req/s\n", rep.throughput_rps);
  std::printf("latency p50/p95/p99 : %.1f / %.1f / %.1f ms (max %.1f)\n",
              rep.latency.p50 * 1e3, rep.latency.p95 * 1e3,
              rep.latency.p99 * 1e3, rep.latency.max * 1e3);
  std::printf("admitted mid-flight : %zu of %zu (%zu slot refills)\n",
              rep.admitted_while_in_flight, rep.admitted_total,
              rep.slots_refilled_in_flight);
  std::printf("deadline misses     : %zu\n", rep.deadline_misses);

  // The realized schedule: stage lanes, 'F' forwards keyed by micro, 'Q'
  // admission intervals in lane 0's idle gaps.
  GanttOptions go;
  go.width = 72;
  std::printf("\n%s", render_ascii_gantt(rep.timeline, go).c_str());
  return 0;
}

}  // namespace

// A bad argument or knob ends the run with its message, not an abort.
int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "example_serving_demo: %s\n", e.what());
    return 1;
  }
}
