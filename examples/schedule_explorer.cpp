// Example: interactive schedule exploration from the command line.
//
//   $ ./schedule_explorer list                # enumerate the registry
//   $ ./schedule_explorer [schedule] [arch] [hw] [D] [N_micro] [B_micro]
//   $ ./schedule_explorer chimera bert-large p100 8 8 32
//
// Prints the simulated timeline, utilization before/after PipeFisher, the
// refresh interval, the closed-form §3.3 performance model for the same
// shape (critical-path coefficients straight from the schedule's registered
// traits), and writes a Chrome trace.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "src/common/strings.h"
#include "src/core/pipefisher.h"
#include "src/perfmodel/perf_model.h"
#include "src/pipeline/schedule_registry.h"
#include "src/trace/ascii_gantt.h"
#include "src/trace/chrome_trace.h"

namespace {

void print_registry() {
  using namespace pf;
  std::printf("registered schedules:\n");
  for (const auto& name : list_schedules()) {
    const ScheduleTraits& t = traits_of(name);
    std::printf("  %-16s %s\n", name.c_str(), t.description.c_str());
    std::printf("  %-16s   pipelines=%d stages/device=%s sync-mult=%d "
                "order=%s%s%s\n",
                "", t.n_pipelines,
                t.stages_per_device_is_virtual
                    ? "V (virtual chunks)"
                    : format("%d", t.stages_per_device).c_str(),
                t.grad_sync_world_multiplier,
                t.dynamic_order ? "greedy" : "static",
                t.even_stages ? ", even stages" : "",
                t.even_micros ? ", even micros" : "");
  }
}

int run(int argc, char** argv) {
  using namespace pf;
  if (argc > 1 && std::strcmp(argv[1], "list") == 0) {
    print_registry();
    return 0;
  }

  PipeFisherConfig cfg;
  cfg.schedule = argc > 1 ? argv[1] : "chimera";
  if (schedule_registered(cfg.schedule) && !traits_of(cfg.schedule).flush) {
    std::printf(
        "%s has traits.flush = false: a flushless schedule has no per-step "
        "bubbles\nfor PipeFisher to fill. Its streaming behaviour "
        "(utilization, weight\nstaleness) is executed by "
        "PipelineRuntime::run_flushless and modeled by the\nasync "
        "simulator.\n",
        cfg.schedule.c_str());
    return 0;
  }
  cfg.arch = transformer_by_name(argc > 2 ? argv[2] : "bert-base");
  cfg.hw = hardware_by_name(argc > 3 ? argv[3] : "p100");
  cfg.n_stages = argc > 4 ? std::atoi(argv[4]) : 8;
  cfg.n_micro = argc > 5 ? std::atoi(argv[5]) : cfg.n_stages;
  cfg.b_micro = argc > 6 ? std::atoi(argv[6]) : 32;
  cfg.blocks_per_stage = 1;

  std::printf("schedules: %s  (try `schedule_explorer list`)\n",
              join(list_schedules(), " | ").c_str());
  std::printf("schedule=%s arch=%s hw=%s D=%d N=%d B=%d\n",
              cfg.schedule.c_str(), cfg.arch.name.c_str(),
              cfg.hw.name.c_str(), cfg.n_stages, cfg.n_micro, cfg.b_micro);

  const auto rep = run_pipefisher(cfg);
  std::printf("\nstep time   : %s -> %s (+%.1f%%)\n",
              human_time(rep.step_time_baseline).c_str(),
              human_time(rep.step_time).c_str(),
              rep.overhead_fraction() * 100);
  std::printf("utilization : %s -> %s\n",
              percent(rep.utilization_baseline).c_str(),
              percent(rep.utilization).c_str());
  std::printf("refresh     : every %d steps\n", rep.refresh_interval_steps);
  std::printf("bubble/step : %s per device\n",
              human_time(rep.bubble_per_step).c_str());

  GanttOptions opt;
  opt.width = 110;
  std::printf("\n%s", render_ascii_gantt(rep.pipefisher_window, opt).c_str());

  // Closed-form §3.3 model for the same shape, C_f/C_b from the traits.
  PerfModelInput in;
  in.cfg = cfg.arch;
  in.hw = cfg.hw;
  in.schedule = cfg.schedule;
  in.depth = static_cast<std::size_t>(cfg.n_stages);
  in.blocks_per_stage = static_cast<std::size_t>(cfg.blocks_per_stage);
  in.n_micro = static_cast<std::size_t>(cfg.n_micro);
  in.b_micro = static_cast<std::size_t>(cfg.b_micro);
  const auto pm = run_perf_model(in);
  const ScheduleParams sp = schedule_params(cfg);
  const ScheduleTraits& traits = traits_of(cfg.schedule);
  std::printf("\nclosed-form model (traits: C_f=%.0f C_b=%.0f): T_pipe=%s  "
              "T_bubble=%s  ratio=%.2f (refresh every %d steps)\n",
              traits.critical_path_forwards(sp),
              traits.critical_path_backwards(sp), human_time(pm.t_pipe).c_str(),
              human_time(pm.t_bubble).c_str(), pm.curv_inv_bubble_ratio,
              pm.refresh_steps);
  std::printf("throughputs (seqs/s): pipeline %.1f | PipeFisher %.1f | "
              "K-FAC+skip %.1f | naive K-FAC %.1f\n",
              pm.throughput_pipeline, pm.throughput_pipefisher,
              pm.throughput_kfac_skip, pm.throughput_kfac_naive);

  const std::string trace = "schedule_explorer_trace.json";
  write_chrome_trace(rep.pipefisher_window, trace);
  std::printf("\nwrote %s\n", trace.c_str());
  return 0;
}

}  // namespace

// A bad argument or knob ends the run with its message, not an abort.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "example_schedule_explorer: %s\n", e.what());
    return 1;
  }
}
