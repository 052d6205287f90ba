// Example: capacity planning with the §3.3 performance model — given an
// architecture and hardware, how should you pick the pipeline schedule,
// depth and micro-batch size so the K-FAC work actually fits the bubbles?
//
//   $ ./bubble_planner [arch] [hw]      closed-form planning table
//   $ ./bubble_planner autotune [D] [N] measured autotune on THIS machine
//
// Closed-form mode prints, per (schedule, D, B_micro): throughput, how many
// steps a curvature refresh takes, and whether device memory fits, flagging
// the paper's recommended operating points. The schedule column enumerates
// the registry, so a newly registered schedule shows up here automatically.
//
// Autotune mode replaces the FLOP model with measurements: it runs a short
// calibration burst on a small live model (src/perfmodel/autotune.h), ranks
// every registry schedule under the fitted costs, executes each viable
// candidate, and cross-checks the winner's realized makespan against its
// prediction — the same loop bench/autotune_baseline gates tightly, here
// with a generous band so the CTest smoke run stays robust on loaded
// 1-CPU containers.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include "src/common/strings.h"
#include "src/perfmodel/autotune.h"
#include "src/perfmodel/perf_model.h"
#include "src/pipeline/schedule_registry.h"

namespace {

int run_autotune(int argc, char** argv) {
  using namespace pf;
  BertConfig cfg;
  cfg.vocab = 40;
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.n_heads = 2;
  cfg.n_layers = 4;
  cfg.seq_len = 16;

  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);

  AutotuneOptions o;
  o.n_devices = argc > 2 ? std::atoi(argv[2]) : 2;
  o.n_micro = argc > 3 ? std::atoi(argv[3]) : 4;
  o.micro_batch_size = 4;
  o.workers = 2;
  o.inverse_interval = 2;
  o.burst_steps = 3;
  o.measure_steps = static_cast<std::size_t>(o.inverse_interval) + 1;

  std::printf(
      "autotuning a %zu-layer toy bert on this machine: D=%d N=%d, "
      "%d workers, burst %zu steps...\n\n",
      cfg.n_layers, o.n_devices, o.n_micro, o.workers, o.burst_steps);
  const AutotuneReport report = autotune(cfg, batcher, o);
  std::printf("burst: %zu steps, %.2f s wall clock\n\n",
              report.burst_steps_run, report.burst_seconds);

  std::printf("%-18s %3s %3s | %12s %10s | %12s\n", "schedule", "S", "N",
              "pred mk (s)", "s/seq", "exec mk (s)");
  for (const auto& c : report.ranked) {
    if (c.viable)
      std::printf("%-18s %3d %3d | %12.4g %10.3g | %12.4g\n",
                  c.schedule.c_str(), c.params.n_stages, c.params.n_micro,
                  c.predicted_makespan, c.predicted_seconds_per_sequence,
                  c.executed_makespan);
    else
      std::printf("%-18s %3d %3d | skipped: %s\n", c.schedule.c_str(),
                  c.params.n_stages, c.params.n_micro,
                  c.skip_reason.c_str());
  }

  const AutotuneCandidate& win = report.winner();
  PF_CHECK(win.executed_makespan > 0.0)
      << "autotune winner was never executed";
  const double err =
      std::fabs(win.predicted_makespan - win.executed_makespan) /
      win.executed_makespan;
  std::printf(
      "\nwinner: %s at S=%d N=%d — predicted %.4g s, executed %.4g s "
      "(%.0f%% error)\n",
      win.schedule.c_str(), win.params.n_stages, win.params.n_micro,
      win.predicted_makespan, win.executed_makespan, 100.0 * err);
  // Generous smoke band: bench/autotune_baseline holds the tight 15% SLA
  // on a dedicated run; here the point is that the loop executes and the
  // prediction is the right order of magnitude even on a noisy container.
  PF_CHECK(err <= 1.0) << "winner prediction off by " << 100.0 * err
                       << "% — calibration loop is broken, not just noisy";
  return 0;
}

int run(int argc, char** argv) {
  using namespace pf;
  if (argc > 1 && std::strcmp(argv[1], "autotune") == 0)
    return run_autotune(argc, argv);
  const auto cfg = transformer_by_name(argc > 1 ? argv[1] : "bert-base");
  const auto hw = hardware_by_name(argc > 2 ? argv[2] : "p100");

  std::printf("bubble planning for %s on %s (memory %s)\n\n",
              cfg.name.c_str(), hw.name.c_str(),
              human_bytes(hw.memory_capacity).c_str());
  std::printf("%-16s %3s %5s | %9s %8s %7s | %9s %6s\n", "schedule", "D",
              "B", "thr(PF)", "refresh", "ratio", "memory", "fits?");

  for (const auto& name : list_schedules()) {
    if (!traits_of(name).flush) {
      std::printf("%-16s (traits.flush = false — a flushless schedule has no "
                  "per-step bubbles to plan; it streams instead)\n",
                  name.c_str());
      continue;
    }
    for (std::size_t d : {4, 8, 16}) {
      for (std::size_t b : {8, 16, 32, 64}) {
        PerfModelInput in;
        in.cfg = cfg;
        in.hw = hw;
        in.schedule = name;
        in.depth = d;
        in.n_micro = d;
        in.b_micro = b;
        const auto r = run_perf_model(in);
        const bool fits = r.memory.total() < hw.memory_capacity;
        std::printf("%-16s %3zu %5zu | %9.1f %7dst %7.2f | %9s %6s\n",
                    name.c_str(), d, b, r.throughput_pipefisher,
                    r.refresh_steps, r.curv_inv_bubble_ratio,
                    human_bytes(r.memory.total()).c_str(),
                    fits ? "yes" : "NO");
      }
    }
  }

  std::printf(
      "\nReading the table: pick the highest-throughput row whose refresh "
      "interval is a\nfew steps and whose memory fits; if memory is the "
      "binding constraint, enable\nactivation recomputation (R) — it trades "
      "throughput for memory AND refresh frequency.\nNote: virtual-pipeline "
      "rows (interleaved-1f1b) keep one block per CHUNK, so at the\nsame D "
      "they model a model V=2x deeper than the other rows — compare within "
      "a row's\nmodel size, or rescale blocks per stage.\n");
  return 0;
}

}  // namespace

// A bad argument or knob ends the run with its message, not an abort.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "example_bubble_planner: %s\n", e.what());
    return 1;
  }
}
