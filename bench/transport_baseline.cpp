// Transport baseline: the shm-ring wire vs the mutex channel, measured.
//
//   $ ./transport_baseline [BENCH_transport.json] [handoff_iters]
//
// Two measurements back the transport layer's claims:
//
//  1. Handoff latency — a keyed ping-pong between two threads over a
//     channel pair (bench/handoff_probe.h), identical code for both
//     backends. Records one-way p50/p95 and the calibration-fitted
//     t_handoff (the low-percentile the cost model uses). Gate: the
//     lock-free ring is no slower than the mutex channel at p50 — the
//     spin-then-futex consumer catches a publish in the spin window where
//     the mutex path always pays the full condvar wake.
//
//  2. Step makespan — the same small K-FAC training shape run four ways:
//     serial Trainer, in-process runtime over both transports, and the
//     forked multi-process launcher (train/multiproc.h) over the rings.
//     Losses are asserted bitwise-equal across ALL of them every run (the
//     transport carries bits, it does not get to change them); the JSON
//     records each seconds/step next to the multiproc per-boundary
//     blocked-wait stats. On a cgroup-limited container the multiproc row
//     shows transport overhead, not speedup — the cpu_budget_note says
//     which world the recording came from.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/handoff_probe.h"
#include "src/comm/tensor_wire.h"
#include "src/comm/transport_channel.h"
#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/optim/lamb.h"
#include "src/perfmodel/calibration.h"
#include "src/train/multiproc.h"
#include "src/train/trainer.h"

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

struct HandoffRow {
  double p50 = 0.0, p95 = 0.0, fitted = 0.0;  // seconds
};

HandoffRow summarize(const std::vector<double>& samples) {
  HandoffRow r;
  r.p50 = percentile_nearest_rank(samples, 50.0);
  r.p95 = percentile_nearest_rank(samples, 95.0);
  CalibrationAccumulator acc(1);
  for (const double s : samples) acc.add_handoff_sample(s);
  r.fitted = acc.fit(1).t_handoff;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_transport.json";
  const int iters = argc > 2 ? std::atoi(argv[2]) : 2000;

  const BertConfig cfg = bench_bert();
  const char* schedule = "1f1b";
  const int n_stages = 2;
  const int n_micro = 4;
  const std::size_t micro_batch = 4;
  const std::size_t steps = 3;

  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);

  auto base_runtime_cfg = [&] {
    PipelineRuntimeConfig pc;
    pc.schedule = schedule;
    pc.n_stages = n_stages;
    pc.n_micro = n_micro;
    pc.micro_batch_size = micro_batch;
    pc.total_steps = steps;
    pc.lr = PolyWarmupSchedule(1e-2, 0, steps);
    pc.use_kfac = true;
    pc.kfac.inverse_interval = 3;
    return pc;
  };

  // --- Multi-process run FIRST: fork() wants a thread-free parent --------
  std::printf("multiproc %s D=%d (forked, shm rings)...\n", schedule,
              n_stages);
  std::fflush(stdout);  // children inherit the buffer across fork
  MultiprocConfig mcfg;
  mcfg.runtime = base_runtime_cfg();
  Rng mp_rng(7);
  BertModel mp_model(cfg, mp_rng);
  const double mp_t0 = now_seconds();
  const MultiprocResult mp = run_multiproc(mp_model, batcher, mcfg);
  const double mp_total = now_seconds() - mp_t0;  // incl. fork/join overhead
  const double mp_per_step = mp.wall_seconds / static_cast<double>(steps);
  std::printf("  %.1f ms/step (slowest child), %.1f ms total incl. fork\n",
              mp_per_step * 1e3, mp_total * 1e3);

  // --- Handoff ping-pong: mutex channel vs shm ring ----------------------
  std::printf("handoff ping-pong, %d round-trips per backend...\n", iters);
  StageChannel mu_ab("pp-mutex[a->b]"), mu_ba("pp-mutex[b->a]");
  const auto mutex_row =
      summarize(pf_bench::ping_pong_samples(mu_ab, mu_ba, iters));
  const std::size_t slot_bytes = wire_bytes(1, 8);
  SharedRegion reg_ab(ShmRing::required_bytes(2, slot_bytes));
  SharedRegion reg_ba(ShmRing::required_bytes(2, slot_bytes));
  TransportChannel sh_ab("pp-ring[a->b]",
                         ShmRing::create(reg_ab.data(), 2, slot_bytes));
  TransportChannel sh_ba("pp-ring[b->a]",
                         ShmRing::create(reg_ba.data(), 2, slot_bytes));
  const auto ring_row =
      summarize(pf_bench::ping_pong_samples(sh_ab, sh_ba, iters));
  std::printf(
      "  mutex channel: p50 %.2f us, p95 %.2f us, fitted t_handoff %.2f us\n"
      "  shm ring:      p50 %.2f us, p95 %.2f us, fitted t_handoff %.2f us\n",
      mutex_row.p50 * 1e6, mutex_row.p95 * 1e6, mutex_row.fitted * 1e6,
      ring_row.p50 * 1e6, ring_row.p95 * 1e6, ring_row.fitted * 1e6);
  PF_CHECK(ring_row.p50 <= mutex_row.p50)
      << "lock-free ring slower than the mutex channel at p50: "
      << ring_row.p50 * 1e6 << " us vs " << mutex_row.p50 * 1e6
      << " us — the spin window should always beat a condvar wake";

  // --- In-process reference runs -----------------------------------------
  auto inproc_run = [&](const char* transport) {
    Rng rng(7);
    BertModel model(cfg, rng);
    PipelineRuntimeConfig pc = base_runtime_cfg();
    pc.transport = transport;
    PipelineRuntime rt(model, batcher, pc);
    const double t0 = now_seconds();
    const auto trace = rt.run();
    return std::make_pair(
        (now_seconds() - t0) / static_cast<double>(steps), trace.loss);
  };
  const auto [ip_mutex_per_step, ip_mutex_losses] = inproc_run("inproc");
  const auto [ip_ring_per_step, ip_ring_losses] = inproc_run("shm");
  std::printf("in-process runtime: %.1f ms/step (mutex), %.1f ms/step "
              "(shm ring)\n",
              ip_mutex_per_step * 1e3, ip_ring_per_step * 1e3);

  double serial_per_step = 0.0;
  std::vector<double> serial_losses;
  {
    Rng rng(7);
    BertModel model(cfg, rng);
    TrainerConfig tc;
    tc.batch_size = micro_batch;
    tc.accumulation_steps = static_cast<std::size_t>(n_micro);
    tc.total_steps = steps;
    tc.schedule = PolyWarmupSchedule(1e-2, 0, steps);
    KfacOptimizerOptions o;
    o.inverse_interval = 3;
    o.per_micro_curvature = true;
    Trainer trainer(model, batcher,
                    std::make_unique<KfacOptimizer>(
                        model.kfac_linears(), std::make_unique<Lamb>(), o),
                    tc);
    const double t0 = now_seconds();
    serial_losses = trainer.run().loss;
    serial_per_step = (now_seconds() - t0) / static_cast<double>(steps);
  }
  std::printf("serial Trainer: %.1f ms/step\n", serial_per_step * 1e3);

  // The wire carries bits, it does not get to change them.
  PF_CHECK(mp.trace.loss == serial_losses)
      << "multiproc losses diverged from the serial reference";
  PF_CHECK(ip_mutex_losses == serial_losses && ip_ring_losses == serial_losses)
      << "in-process losses diverged from the serial reference";
  std::printf("bitwise: multiproc == in-process (both transports) == serial "
              "Trainer\n");

  std::string boundary_rows;
  for (const auto& h : mp.handoff) {
    if (!boundary_rows.empty()) boundary_rows += ",\n";
    boundary_rows += format(
        "      {\"channel\": \"%s\", \"blocked_waits\": %zu, "
        "\"wait_p50_us\": %.3f, \"wait_p95_us\": %.3f, "
        "\"wait_mean_us\": %.3f}",
        h.channel.c_str(), h.waits, h.wait_p50 * 1e6, h.wait_p95 * 1e6,
        h.wait_mean * 1e6);
  }

  const std::string json = format(
      "{\n  \"shape\": {\"schedule\": \"%s\", \"n_stages\": %d, "
      "\"n_micro\": %d, \"micro_batch\": %zu, \"steps\": %zu, "
      "\"d_model\": %zu, \"n_layers\": %zu, \"kfac\": true},\n"
      "  \"cpu_budget_note\": \"bitwise-identical losses asserted across "
      "serial, in-process (both transports) and multiproc every run; under "
      "a 1-CPU cgroup budget the forked processes time-slice one core, so "
      "multiproc seconds_per_step shows transport overhead, not speedup — "
      "the CI artifact (BENCH_transport_ci.json) carries the multi-core "
      "numbers. Handoff latencies are scheduler-sensitive; compare only "
      "against runs with the same CPU budget.\",\n"
      "  \"handoff\": {\n"
      "    \"round_trips\": %d,\n"
      "    \"mutex_channel\": {\"p50_us\": %.3f, \"p95_us\": %.3f, "
      "\"fitted_t_handoff_us\": %.3f},\n"
      "    \"shm_ring\": {\"p50_us\": %.3f, \"p95_us\": %.3f, "
      "\"fitted_t_handoff_us\": %.3f},\n"
      "    \"ring_vs_mutex_p50\": %.4g\n  },\n"
      "  \"train\": {\n"
      "    \"serial_seconds_per_step\": %.6g,\n"
      "    \"inproc_mutex_seconds_per_step\": %.6g,\n"
      "    \"inproc_ring_seconds_per_step\": %.6g,\n"
      "    \"multiproc_seconds_per_step\": %.6g,\n"
      "    \"multiproc_total_seconds_incl_fork\": %.6g,\n"
      "    \"multiproc_processes\": %d,\n"
      "    \"multiproc_boundary_waits\": [\n%s\n    ]\n  }\n}\n",
      schedule, n_stages, n_micro, micro_batch, steps, cfg.d_model,
      cfg.n_layers, iters, mutex_row.p50 * 1e6, mutex_row.p95 * 1e6,
      mutex_row.fitted * 1e6, ring_row.p50 * 1e6, ring_row.p95 * 1e6,
      ring_row.fitted * 1e6, ring_row.p50 / mutex_row.p50, serial_per_step,
      ip_mutex_per_step, ip_ring_per_step, mp_per_step, mp_total,
      mp.n_processes, boundary_rows.c_str());
  FILE* f = std::fopen(path.c_str(), "w");
  PF_CHECK(f != nullptr) << "cannot open " << path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
