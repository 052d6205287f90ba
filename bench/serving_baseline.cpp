// Serving-engine baseline: continuous batching vs the static drain-between-
// batches baseline, on real tensors through the real engine.
//
//   $ ./serving_baseline [BENCH_serving.json] [requests]
//
// Two measurements:
//
//   saturation  — the full request trace is queued up front (replay mode)
//                 and both policies drain it at maximum speed. Equal load,
//                 equal bits (asserted every run: per-request logits are
//                 bitwise identical across policies), different schedules:
//                 continuous keeps the pipe full by refilling freed slots
//                 mid-flight, static drains between batches. The SLA the CI
//                 bench job asserts on its multi-core artifact
//                 (BENCH_serving_ci.json) is continuous throughput >= static
//                 throughput at this equal load.
//   load sweep  — a live producer pushes the same trace at a fraction of
//                 the measured saturation throughput (0.5x, 0.8x, 1.2x) and
//                 the report's p50/p95/p99 show the latency knee as offered
//                 load crosses capacity.
//
// Reading the numbers: the continuous-vs-static gap needs real cores — on a
// cgroup-limited 1-CPU container both policies serialize onto the same
// core and the ratio hovers ~1x (the cpu_budget_note in the JSON says which
// world the recording came from; CI's artifact is the demonstrating one).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/serve/serving_engine.h"

namespace {

using namespace pf;

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

std::vector<InferRequest> fixed_trace(std::size_t n, const BertConfig& cfg) {
  Rng rng(42);
  std::vector<InferRequest> rs;
  for (std::size_t i = 0; i < n; ++i) {
    InferRequest r;
    r.id = i;
    const std::size_t len = 1 + rng.next_u64() % cfg.seq_len;
    for (std::size_t t = 0; t < len; ++t)
      r.ids.push_back(static_cast<int>(rng.next_u64() % cfg.vocab));
    rs.push_back(std::move(r));
  }
  return rs;
}

ServingEngineConfig engine_config(BatchPolicy policy) {
  ServingEngineConfig ec;
  ec.n_stages = 2;
  ec.max_batch = 4;
  ec.workers = 2;
  ec.policy = policy;
  return ec;
}

// Replay the whole trace at maximum speed.
ServingReport saturation_run(BertModel& model,
                             const std::vector<InferRequest>& trace,
                             BatchPolicy policy) {
  ServingEngine engine(model, engine_config(policy));
  RequestQueue q;
  q.push_all(trace);
  q.close();
  return engine.run(q);
}

// Live producer pushing at `offered_rps` while the engine serves.
ServingReport live_run(BertModel& model,
                       const std::vector<InferRequest>& trace,
                       double offered_rps) {
  ServingEngine engine(model, engine_config(BatchPolicy::kContinuous));
  RequestQueue q;
  std::thread producer([&q, &trace, offered_rps] {
    const auto gap = std::chrono::duration<double>(1.0 / offered_rps);
    for (const InferRequest& r : trace) {
      q.push(r);
      std::this_thread::sleep_for(gap);
    }
    q.close();
  });
  ServingReport rep = engine.run(q);
  producer.join();
  return rep;
}

std::string percentile_row(const ServingReport& rep) {
  return format(
      "\"throughput_rps\": %.6g, \"p50_ms\": %.6g, \"p95_ms\": %.6g, "
      "\"p99_ms\": %.6g, \"mean_ms\": %.6g, \"n_micros\": %zu, "
      "\"admitted_while_in_flight\": %zu, \"slots_refilled_in_flight\": %zu",
      rep.throughput_rps, rep.latency.p50 * 1e3, rep.latency.p95 * 1e3,
      rep.latency.p99 * 1e3, rep.latency.mean * 1e3, rep.n_micros,
      rep.admitted_while_in_flight, rep.slots_refilled_in_flight);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_serving.json";
  const std::size_t n_requests =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 64;
  const auto cfg = bench_bert();
  Rng rng(7);
  BertModel model(cfg, rng);
  const auto trace = fixed_trace(n_requests, cfg);

  // Untimed warmup: the first run through the model pays allocator and
  // cache warmup (~2x inflated forwards) and would bias whichever policy
  // goes first.
  (void)saturation_run(model, trace, BatchPolicy::kContinuous);
  (void)saturation_run(model, trace, BatchPolicy::kStatic);

  std::printf("saturation: %zu requests, 2 stages, max_batch 4...\n",
              n_requests);
  const auto cont = saturation_run(model, trace, BatchPolicy::kContinuous);
  const auto stat = saturation_run(model, trace, BatchPolicy::kStatic);
  PF_CHECK(cont.records.size() == n_requests &&
           stat.records.size() == n_requests)
      << "a policy dropped requests";
  // Equal load, equal bits: logits must not depend on the batching policy.
  for (std::size_t i = 0; i < n_requests; ++i) {
    const Matrix& a = cont.records[i].output.mlm_logits;
    const Matrix& b = stat.records[i].output.mlm_logits;
    PF_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
      for (std::size_t c = 0; c < a.cols(); ++c)
        PF_CHECK(a(r, c) == b(r, c))
            << "policy changed request " << i << "'s logits";
  }
  const double ratio = cont.throughput_rps / stat.throughput_rps;
  std::printf(
      "  continuous: %.1f req/s, p50 %.1f ms, p99 %.1f ms "
      "(%zu admitted mid-flight, %zu slot refills)\n",
      cont.throughput_rps, cont.latency.p50 * 1e3, cont.latency.p99 * 1e3,
      cont.admitted_while_in_flight, cont.slots_refilled_in_flight);
  std::printf("  static:     %.1f req/s, p50 %.1f ms, p99 %.1f ms\n",
              stat.throughput_rps, stat.latency.p50 * 1e3,
              stat.latency.p99 * 1e3);
  std::printf("  continuous/static throughput: %.2fx (bitwise-equal logits)\n",
              ratio);

  // Load sweep at fractions of the measured saturation throughput; the
  // latency knee appears as offered load crosses capacity.
  std::string sweep_rows;
  for (const double frac : {0.5, 0.8, 1.2}) {
    const double offered = frac * cont.throughput_rps;
    const auto rep = live_run(model, trace, offered);
    PF_CHECK(rep.records.size() == n_requests);
    std::printf(
        "load %.1fx (%.1f req/s offered): %.1f req/s served, p50 %.1f ms, "
        "p95 %.1f ms, p99 %.1f ms\n",
        frac, offered, rep.throughput_rps, rep.latency.p50 * 1e3,
        rep.latency.p95 * 1e3, rep.latency.p99 * 1e3);
    if (!sweep_rows.empty()) sweep_rows += ",\n";
    sweep_rows += format(
        "    \"load_%.1fx\": {\"offered_rps\": %.6g, %s}", frac, offered,
        percentile_row(rep).c_str());
  }

  const std::string json = format(
      "{\n  \"shape\": {\"n_stages\": %d, \"max_batch\": %zu, "
      "\"workers\": %d, \"requests\": %zu, \"d_model\": %zu, "
      "\"n_layers\": %zu, \"seq_len\": %zu},\n"
      "  \"cpu_budget_note\": \"%s; per-request logits asserted "
      "bitwise-equal between policies every run; the continuous >= static "
      "throughput SLA needs real cores — on one CPU both policies serialize "
      "and the ratio hovers ~1x, and the CI bench job asserts the SLA on "
      "its artifact (BENCH_serving_ci.json). Compare only against runs "
      "with the same CPU budget.\",\n"
      "  \"saturation\": {\n"
      "    \"continuous\": {%s},\n"
      "    \"static\": {%s},\n"
      "    \"continuous_over_static_throughput\": %.4g\n  },\n"
      "  \"load_sweep\": {\n%s\n  }\n}\n",
      engine_config(BatchPolicy::kContinuous).n_stages,
      engine_config(BatchPolicy::kContinuous).max_batch,
      engine_config(BatchPolicy::kContinuous).workers, n_requests,
      cfg.d_model, cfg.n_layers, cfg.seq_len,
      pf::bench::cpu_budget().c_str(), percentile_row(cont).c_str(),
      percentile_row(stat).c_str(), ratio, sweep_rows.c_str());
  FILE* f = std::fopen(path.c_str(), "w");
  PF_CHECK(f != nullptr) << "cannot open " << path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
