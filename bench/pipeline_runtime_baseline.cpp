// Executable-pipeline-runtime baseline: REAL wall-clock evidence for the
// paper's claim, measured on actual tensors rather than the simulator.
//
//   $ ./pipeline_runtime_baseline [BENCH_pipeline_runtime.json] [steps]
//
// For each worker count it times (a) the sequential reference — serial
// Trainer, fwd/bwd of every micro-batch then K-FAC curvature/inversion/
// precondition back to back — and (b) the pipeline runtime, where the same
// K-FAC work items ride the realized pipeline bubbles. Both produce
// bit-identical losses (asserted here every run); only the wall clock and
// the executed timeline differ. The executed utilization is reported next
// to the discrete-event simulator's prediction for the same schedule.
//
// Each worker row also runs the calibrated-prediction gate: a profile is
// fitted on the first half of the row's executed steps
// (src/perfmodel/calibration.h) and must predict the second half's total
// makespan within 10%, beating the uncalibrated unit-cost simulator's
// utilization estimate whenever the executor threads fit the core budget
// — both PF_CHECKed every run, so the bench fails if the calibration
// loop rots.
//
// Reading the numbers: with >= 2 worker threads the bubble-filled step
// should beat the sequential one (the acceptance claim). On a cgroup-
// limited 1-CPU container the extra workers add no wall-clock parallelism
// and the pipeline's task-handoff overhead makes speedup ~1x or below —
// the cpu_budget_note in the JSON says which world the recording came
// from; CI's multi-core artifact (BENCH_pipeline_runtime_ci.json) is the
// one that demonstrates the win.
//
// The "stash" block is the memory half of the story, taken from the
// workers=2 row: peak stash bytes (max over stages, per step) of the
// move/borrow stashes, the storage-pool recycle counts that show
// steady-state steps reuse storage instead of re-allocating it
// (arena_recycled), and the pool's process-wide live and parked bytes after
// the row's last step (linalg/matrix.h) — parked bytes are what the pool
// keeps from glibc — with the live bytes' high-water mark over the row,
// the one peak taken at a single moment (the per-stage stash peaks are
// not).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/handoff_probe.h"
#include "src/comm/tensor_wire.h"
#include "src/comm/transport_channel.h"
#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/optim/lamb.h"
#include "src/perfmodel/calibration.h"
#include "src/pipeline/simulator.h"
#include "src/train/pipeline_runtime.h"

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

struct TimedRun {
  std::vector<double> losses;
  double seconds_per_step = 0.0;
  double utilization = 0.0;  // executed (pipeline runs only)
  std::vector<PipelineRuntime::StageMemoryStats> mem;
  // After the last step; peak_live over the whole run (pipeline runs only).
  StoragePoolBytes pool;
  // Calibration inputs (pipeline runs only): every step's executed
  // timeline, the runtime's own step plans, and the executor concurrency
  // the run used.
  std::vector<Timeline> step_timelines;
  StepPlan plan_curv;  // curvature-only step
  StepPlan plan_inv;   // curvature + inversion step
  std::size_t threads = 0;
};

double executed_span(const Timeline& tl) {
  return tl.makespan() - tl.earliest_start();
}

std::size_t max_peak_stash(const TimedRun& r) {
  std::size_t peak = 0;
  for (const auto& m : r.mem) peak = std::max(peak, m.peak_stash_bytes);
  return peak;
}

std::size_t sum_recycled(const TimedRun& r) {
  std::size_t n = 0;
  for (const auto& m : r.mem) n += m.arena_recycled;
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "BENCH_pipeline_runtime.json";
  // 12 steps: the calibration gate fits on steps 2..5 and predicts 6..11,
  // keeping both windows out of the first-steps warmup drift (allocator
  // steady state, cache warmup) that 8 steps could not escape.
  const std::size_t steps =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 12;
  const auto cfg = bench_bert();
  const int n_micro = 8;
  const std::size_t micro_batch = 8;
  const int n_stages = 4;
  const char* schedule = "1f1b";

  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);

  auto serial_run = [&]() {
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
    TimedRun r;
    const double t0 = now_seconds();
    const auto trace = trainer.run();
    r.seconds_per_step = (now_seconds() - t0) / static_cast<double>(steps);
    r.losses = trace.loss;
    return r;
  };

  auto pipeline_run = [&](int workers) {
    reset_storage_pool_peak();
    Rng rng(7);
    BertModel model(cfg, rng);
    PipelineRuntimeConfig pc;
    pc.schedule = schedule;
    pc.n_stages = n_stages;
    pc.n_micro = n_micro;
    pc.micro_batch_size = micro_batch;
    pc.total_steps = steps;
    pc.lr = PolyWarmupSchedule(1e-2, 0, steps);
    pc.workers = workers;
    pc.stage_threads = 1;
    pc.use_kfac = true;
    pc.kfac.inverse_interval = 3;
    TimedRun r;
    PipelineRuntime rt(model, batcher, pc);
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < steps; ++i) {
      r.losses.push_back(rt.step().total);
      r.step_timelines.push_back(rt.last_executed_timeline());
    }
    r.seconds_per_step = (now_seconds() - t0) / static_cast<double>(steps);
    r.utilization = rt.last_executed_timeline().utilization();
    r.mem = rt.memory_stats();
    r.pool = storage_pool_bytes();
    r.plan_curv = rt.make_step_plan(/*curv_step=*/true, /*inv_step=*/false);
    r.plan_inv = rt.make_step_plan(/*curv_step=*/true, /*inv_step=*/true);
    r.threads = rt.executor_threads();
    return r;
  };

  // Simulator prediction for the same schedule shape (unit §3.3 costs).
  ScheduleParams sp;
  sp.n_stages = n_stages;
  sp.n_micro = n_micro;
  const auto sim = simulate_step(build_schedule(schedule, sp), StepCosts{});
  const double sim_util = sim.timeline.utilization(0.0, sim.pipe_makespan);

  std::printf("sequential reference (serial Trainer + K-FAC)...\n");
  const auto serial = serial_run();
  std::printf("  %.1f ms/step\n", serial.seconds_per_step * 1e3);

  std::string rows;
  // The workers=2 row's.
  std::size_t stash_peak = 0, stash_recycled = 0;
  StoragePoolBytes stash_pool;
  for (const int workers : {1, 2, 4}) {
    const auto pr = pipeline_run(workers);
    if (workers == 2) {
      stash_peak = max_peak_stash(pr);
      stash_recycled = sum_recycled(pr);
      stash_pool = pr.pool;
    }
    // The whole point: same bits, different wall clock.
    PF_CHECK(pr.losses == serial.losses)
        << "pipeline losses diverged from the serial reference at workers="
        << workers;
    const double speedup = serial.seconds_per_step / pr.seconds_per_step;
    std::printf(
        "pipeline %s D=%d workers=%d: %.1f ms/step (%.2fx vs sequential), "
        "executed utilization %s (simulator predicts %s), "
        "peak stash %zu KiB, %zu arena recycles/step, pool %zu KiB live "
        "(peak %zu KiB) %zu KiB parked\n",
        schedule, n_stages, workers, pr.seconds_per_step * 1e3, speedup,
        percent(pr.utilization).c_str(), percent(sim_util).c_str(),
        max_peak_stash(pr) / 1024, sum_recycled(pr), pr.pool.live / 1024,
        pr.pool.peak_live / 1024, pr.pool.parked / 1024);

    // Calibrated prediction gate: fit a profile on the FIRST half of this
    // row's executed steps (steps 0-1 excluded — first-touch allocation
    // and cache warmup still taper there; the window spans one full
    // inverse_interval so it sees an inversion step), then predict the
    // SECOND half per step type by replaying the runtime's own step plans
    // under the fitted costs. The acceptance claim: calibrated predicted
    // makespan within 10% of executed, and the calibrated utilization
    // prediction at least as close as the uncalibrated unit-cost
    // simulator's.
    PF_CHECK(steps >= 8 && pr.step_timelines.size() == steps);
    const std::size_t half = steps / 2;
    const std::size_t fit_start = 2;
    CalibrationAccumulator acc(n_stages);
    for (std::size_t t = fit_start; t < half; ++t)
      acc.ingest(pr.step_timelines[t]);
    CalibratedCosts prof = acc.fit(static_cast<int>(pr.threads));
    // Residual from the fit window itself: executed over replayed seconds,
    // absorbing dispatch latency and contention the per-task means miss.
    double fit_exec = 0.0, fit_repl = 0.0;
    {
      const double repl_curv =
          predict_step(pr.plan_curv, prof, pr.threads).makespan;
      const double repl_inv =
          predict_step(pr.plan_inv, prof, pr.threads).makespan;
      for (std::size_t t = fit_start; t < half; ++t) {
        fit_exec += executed_span(pr.step_timelines[t]);
        fit_repl += (t % 3 == 0) ? repl_inv : repl_curv;
      }
    }
    PF_CHECK(fit_exec > 0.0 && fit_repl > 0.0);
    prof.residual_scale = fit_exec / fit_repl;
    const auto pred_curv = predict_step(pr.plan_curv, prof, pr.threads);
    const auto pred_inv = predict_step(pr.plan_inv, prof, pr.threads);
    double err_sum = 0.0, err_max = 0.0, exec_sum = 0.0;
    double exec_util_sum = 0.0, pred_util_sum = 0.0;
    for (std::size_t t = half; t < steps; ++t) {
      const auto& p = (t % 3 == 0) ? pred_inv : pred_curv;
      const double exec = executed_span(pr.step_timelines[t]);
      const double err = std::fabs(p.makespan - exec) / exec;
      std::printf("    step %zu (%s): executed %.4g s, predicted %.4g s "
                  "(%+.1f%%)\n",
                  t, (t % 3 == 0) ? "curv+inv" : "curv", exec, p.makespan,
                  100.0 * (p.makespan - exec) / exec);
      err_sum += err;
      err_max = std::max(err_max, err);
      exec_sum += exec;
      exec_util_sum += pr.step_timelines[t].utilization();
      pred_util_sum += p.utilization();
    }
    const double n2 = static_cast<double>(steps - half);
    const double err_mean = err_sum / n2;
    const double exec_mean = exec_sum / n2;
    const double exec_util = exec_util_sum / n2;
    const double pred_util = pred_util_sum / n2;
    const double cal_util_err = std::fabs(pred_util - exec_util);
    const double uncal_util_err = std::fabs(sim_util - exec_util);
    // The gated quantity is the AGGREGATE window error — per-step spans on
    // a shared container carry ±20% contention outliers that average out
    // over the window; a systematic model error does not.
    double pred_sum = 0.0;
    for (std::size_t t = half; t < steps; ++t)
      pred_sum += ((t % 3 == 0) ? pred_inv : pred_curv).makespan;
    const double err_window = std::fabs(pred_sum - exec_sum) / exec_sum;
    std::printf(
        "  calibrated prediction workers=%d: residual %.3f, window error "
        "%.1f%% (per-step mean %.1f%%, max %.1f%%), predicted utilization "
        "%s vs executed %s (uncalibrated simulator off by %.1f pts, "
        "calibrated by %.1f pts)\n",
        workers, prof.residual_scale, 100.0 * err_window, 100.0 * err_mean,
        100.0 * err_max, percent(pred_util).c_str(),
        percent(exec_util).c_str(), 100.0 * uncal_util_err,
        100.0 * cal_util_err);
    PF_CHECK(err_window <= 0.10)
        << "calibrated predicted makespan drifted " << 100.0 * err_window
        << "% from executed over the prediction window at workers="
        << workers << " — the 10% acceptance band";
    // The utilization-beat gate only applies when the executor's threads
    // fit the core budget: an oversubscribed run (e.g. workers=4 under a
    // 2-CPU cgroup) executes with lane idle gaps the replay's concurrency
    // cap cannot model — exactly the regime the cpu_budget_note disclaims.
    // Both errors are always recorded in the JSON.
    const std::size_t cores = std::thread::hardware_concurrency();
    if (pr.threads <= cores) {
      PF_CHECK(cal_util_err <= uncal_util_err)
          << "calibrated utilization prediction (off by " << cal_util_err
          << ") lost to the uncalibrated simulator (off by "
          << uncal_util_err << ") at workers=" << workers;
    } else {
      std::printf(
          "  (utilization-beat gate skipped: %zu executor threads "
          "oversubscribe %zu cores)\n",
          pr.threads, cores);
    }

    if (!rows.empty()) rows += ",\n";
    rows += format(
        "    \"workers_%d\": {\"seconds_per_step\": %.6g, "
        "\"speedup_vs_sequential\": %.4g, \"executed_utilization\": %.4g, "
        "\"peak_stash_bytes\": %zu, \"arena_recycled_per_step\": %zu, "
        "\"pool_live_bytes\": %zu, \"pool_peak_live_bytes\": %zu, "
        "\"pool_parked_bytes\": %zu,\n"
        "      \"calibration\": {\"residual_scale\": %.4g, "
        "\"predicted_makespan_curv\": %.6g, \"predicted_makespan_inv\": "
        "%.6g, \"executed_makespan_mean\": %.6g, "
        "\"prediction_error_window\": %.4g, \"prediction_error_mean\": "
        "%.4g, \"prediction_error_max\": %.4g, \"predicted_utilization\": "
        "%.4g, \"utilization_error\": %.4g, "
        "\"uncalibrated_utilization_error\": %.4g}}",
        workers, pr.seconds_per_step, speedup, pr.utilization,
        max_peak_stash(pr), sum_recycled(pr), pr.pool.live,
        pr.pool.peak_live, pr.pool.parked,
        prof.residual_scale,
        pred_curv.makespan, pred_inv.makespan, exec_mean, err_window,
        err_mean, err_max, pred_util, cal_util_err, uncal_util_err);
  }

  // Boundary-handoff calibration, per transport: ping-pong samples
  // (bench/handoff_probe.h — the exact send/recv path the runtime's
  // channels run) fed through CalibrationAccumulator::add_handoff_sample,
  // fitted in isolation per backend. Gate: the lock-free shm ring's fitted
  // t_handoff must not exceed the mutex channel's — the whole reason the
  // ring exists is to take the condvar wake off the boundary-crossing
  // critical path.
  double handoff_mutex = 0.0, handoff_ring = 0.0;
  {
    const int iters = 1000;
    StageChannel mu_ab("cal-mutex[a->b]"), mu_ba("cal-mutex[b->a]");
    CalibrationAccumulator mu_acc(n_stages);
    for (const double s : pf_bench::ping_pong_samples(mu_ab, mu_ba, iters))
      mu_acc.add_handoff_sample(s);
    handoff_mutex = mu_acc.fit(1).t_handoff;
    const std::size_t slot_bytes = wire_bytes(1, 8);
    SharedRegion reg_ab(ShmRing::required_bytes(2, slot_bytes));
    SharedRegion reg_ba(ShmRing::required_bytes(2, slot_bytes));
    TransportChannel sh_ab("cal-ring[a->b]",
                           ShmRing::create(reg_ab.data(), 2, slot_bytes));
    TransportChannel sh_ba("cal-ring[b->a]",
                           ShmRing::create(reg_ba.data(), 2, slot_bytes));
    CalibrationAccumulator sh_acc(n_stages);
    for (const double s : pf_bench::ping_pong_samples(sh_ab, sh_ba, iters))
      sh_acc.add_handoff_sample(s);
    handoff_ring = sh_acc.fit(1).t_handoff;
    std::printf(
        "fitted t_handoff: mutex channel %.2f us, shm ring %.2f us\n",
        handoff_mutex * 1e6, handoff_ring * 1e6);
    PF_CHECK(handoff_ring <= handoff_mutex)
        << "fitted shm-ring t_handoff (" << handoff_ring * 1e6
        << " us) exceeds the mutex channel's (" << handoff_mutex * 1e6
        << " us)";
  }

  const std::string json = format(
      "{\n  \"shape\": {\"schedule\": \"%s\", \"n_stages\": %d, "
      "\"n_micro\": %d, \"micro_batch\": %zu, \"steps\": %zu, "
      "\"d_model\": %zu, \"n_layers\": %zu},\n"
      "  \"cpu_budget_note\": \"recorded with %u hardware threads; "
      "bitwise-identical losses asserted for every row; wall-clock speedup "
      "needs real cores — under a 1-CPU cgroup "
      "budget the workers>1 rows stay ~1x, and the CI artifact "
      "(BENCH_pipeline_runtime_ci.json) carries the full multi-core "
      "numbers. Compare only against runs with the same CPU budget.\",\n"
      "  \"sequential_seconds_per_step\": %.6g,\n"
      "  \"simulator_predicted_utilization\": %.4g,\n"
      "  \"fitted_t_handoff_us\": {\"mutex_channel\": %.3f, "
      "\"shm_ring\": %.3f},\n"
      "  \"stash\": {\"borrow_peak_stash_bytes\": %zu, "
      "\"borrow_arena_recycled_per_step\": %zu, \"pool_live_bytes\": %zu, "
      "\"pool_peak_live_bytes\": %zu, \"pool_parked_bytes\": %zu},\n"
      "  \"pipeline\": {\n%s\n  }\n}\n",
      schedule, n_stages, n_micro, micro_batch, steps, cfg.d_model,
      cfg.n_layers, std::thread::hardware_concurrency(),
      serial.seconds_per_step, sim_util, handoff_mutex * 1e6,
      handoff_ring * 1e6, stash_peak, stash_recycled, stash_pool.live,
      stash_pool.peak_live, stash_pool.parked, rows.c_str());
  FILE* f = std::fopen(path.c_str(), "w");
  PF_CHECK(f != nullptr) << "cannot open " << path;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
