#include "src/train/multiproc.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/comm/tensor_wire.h"
#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/train/plan_binder.h"

namespace pf {

namespace {

// Bound on every blocking channel wait (recv and ring-full sends). A peer
// that stalls longer is a bug (or a dead child) and surfaces as a pf::Error
// naming the channel, micro and pending keys.
constexpr double kChannelTimeoutSeconds = 120.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

MultiprocResult run_multiproc(BertModel& model, const MlmBatcher& batcher,
                              const MultiprocConfig& mcfg) {
#ifdef _WIN32
  (void)model;
  (void)batcher;
  (void)mcfg;
  PF_CHECK(false) << "run_multiproc requires fork() (POSIX only)";
#else
  const PipelineRuntimeConfig& cfg = mcfg.runtime;
  PF_CHECK(traits_of(cfg.schedule).flush)
      << cfg.schedule
      << ": multiproc runs synchronous steps only (flushless schedules "
         "stream in-process via run_flushless)";
  const ScheduleSpec spec = build_runtime_schedule(cfg);
  PF_CHECK(spec.n_pipelines == 1)
      << cfg.schedule << ": the shm rings are SPSC — " << spec.n_pipelines
      << " pipelines put two producer devices on one boundary";
  PF_CHECK(cfg.n_micro >= 1 && cfg.micro_batch_size >= 1);
  PF_CHECK(cfg.stage_threads >= 1);
  PF_CHECK(cfg.total_steps >= 1);

  const int S = spec.n_stages;
  const int N = spec.n_micro;
  const int D = spec.n_devices;
  const int steps = static_cast<int>(cfg.total_steps);

  // Event order and K-FAC factors: the plan inputs the in-process
  // runtime derives, by the same calls — computed ONCE, pre-fork, so every
  // child plans the same steps. Neither starts a thread or builds an
  // engine (each child builds engines for its own stages, after the fork).
  BertStagePartition partition(model, S);
  const std::vector<std::vector<PipeOp>> device_order =
      plan_device_order(spec);
  const KfacFactors factors = kfac_factors(partition, cfg.use_kfac);

  // Stage ownership: the device whose program runs the stage's ops. The
  // plan builder puts a stage's K-FAC and tail tasks on the same lane, so
  // filtering plan tasks by lane == d covers everything stage s does.
  std::vector<int> owner(static_cast<std::size_t>(S), -1);
  for (int d = 0; d < D; ++d)
    for (const PipeOp& op : device_order[static_cast<std::size_t>(d)]) {
      int& o = owner[static_cast<std::size_t>(op.stage)];
      PF_CHECK(o == -1 || o == d)
          << cfg.schedule << ": stage " << op.stage
          << " runs on two devices — not a single-pipeline placement";
      o = d;
    }
  for (int s = 0; s < S; ++s)
    PF_CHECK(owner[static_cast<std::size_t>(s)] >= 0)
        << "stage " << s << " appears in no device program";

  // Rings, created pre-fork in MAP_SHARED regions: every child inherits
  // the same mapping at the same address. At most N messages are in
  // flight per boundary+direction (a producer's next-step sends
  // transitively depend on the consumer having drained this step's); the
  // +1 slot is slack, not load-bearing.
  const std::size_t slot_bytes = wire_bytes(
      cfg.micro_batch_size * model.config().seq_len, model.config().d_model);
  const std::size_t ring_slots = static_cast<std::size_t>(N) + 1;
  std::vector<SharedRegion> regions;
  std::vector<std::unique_ptr<TransportChannel>> fwd_ch;  // boundary b -> b+1
  std::vector<std::unique_ptr<TransportChannel>> bwd_ch;  // boundary b+1 -> b
  StageLinks links;
  links.recv_timeout = kChannelTimeoutSeconds;
  auto make_ch = [&](const std::string& nm) {
    regions.emplace_back(ShmRing::required_bytes(ring_slots, slot_bytes));
    return std::make_unique<TransportChannel>(
        nm, ShmRing::create(regions.back().data(), ring_slots, slot_bytes, nm),
        kChannelTimeoutSeconds);
  };
  for (int b = 0; b + 1 < S; ++b) {
    fwd_ch.push_back(make_ch(format("fwd[%d->%d]", b, b + 1)));
    bwd_ch.push_back(make_ch(format("bwd[%d->%d]", b + 1, b)));
    links.fwd.push_back(fwd_ch.back().get());
    links.bwd.push_back(bwd_ch.back().get());
  }

  // Result region layout (doubles): per-step losses ‖ final params (flat,
  // stage order == model.params() order) ‖ per-ring handoff stats
  // [waits, p50, p95, mean] (fwd[0..S-2] then bwd[0..S-2]) ‖ per-child
  // step-loop wall seconds. Children write disjoint slices.
  std::vector<std::size_t> stage_param_off(static_cast<std::size_t>(S) + 1, 0);
  for (int s = 0; s < S; ++s) {
    std::size_t n = 0;
    for (const Param* p : partition.stage(s).params()) n += p->w.size();
    stage_param_off[static_cast<std::size_t>(s) + 1] =
        stage_param_off[static_cast<std::size_t>(s)] + n;
  }
  const std::size_t total_param = stage_param_off[static_cast<std::size_t>(S)];
  const std::size_t n_rings = 2 * static_cast<std::size_t>(S - 1);
  const std::size_t losses_off = 0;
  const std::size_t params_off =
      losses_off + static_cast<std::size_t>(steps) * 3;
  const std::size_t handoff_off = params_off + total_param;
  const std::size_t wall_off = handoff_off + n_rings * 4;
  const std::size_t total_doubles = wall_off + static_cast<std::size_t>(D);
  SharedRegion results(total_doubles * sizeof(double));
  double* res = static_cast<double*>(results.data());
  std::fill(res, res + total_doubles, 0.0);

  // --- Child body --------------------------------------------------------
  // Executes the step plan filtered to lane == d in ascending plan index.
  // Every dependency edge points at a smaller index, so per-lane index
  // order is a linear extension of the global DAG: a blocked recv()'s
  // producer always lies at a smaller index on a lane that has not passed
  // it — progress is guaranteed, and the gradient-fold order the bitwise
  // contract needs is exactly the plan's.
  auto child_main = [&](int d) {
    std::vector<int> owned;
    for (int s = 0; s < S; ++s)
      if (owner[static_cast<std::size_t>(s)] == d) owned.push_back(s);

    // Fresh pool AFTER the fork — an inherited pool has state but no
    // threads. The binder's stage contexts, and so every task they run,
    // K-FAC included, dispatch on this pool, never the process-global one
    // (which would lazily spawn per-child thread herds). Every child
    // re-draws the FULL deterministic batch stream — identical bytes in
    // every process, no batch shipping, RNG in lockstep with the serial
    // Trainer and the in-process runtime.
    ThreadPool pool(cfg.stage_threads > 1
                        ? static_cast<std::size_t>(cfg.stage_threads)
                        : 0);
    PlanBinder binder(partition, spec, cfg, batcher, &pool, owned, links);
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < steps; ++t) {
      binder.begin_step(static_cast<std::size_t>(t), N);
      const StepPlan plan = build_step_plan(spec, device_order, factors,
                                            binder.curv_step(),
                                            binder.inv_step());
      for (const PlannedTask& pt : plan.tasks)
        if (pt.lane == static_cast<std::size_t>(d)) binder.run(pt);
      if (owner[static_cast<std::size_t>(S - 1)] == d) {
        const BertLossBreakdown l = binder.mean_loss(0, N);
        double* out = res + losses_off + static_cast<std::size_t>(t) * 3;
        out[0] = l.total;
        out[1] = l.mlm;
        out[2] = l.nsp;
      }
      binder.end_step();
    }
    const double wall = seconds_since(t0);

    for (const int s : owned) {
      double* dst =
          res + params_off + stage_param_off[static_cast<std::size_t>(s)];
      for (const Param* p : binder.worker(s).params) {
        std::copy(p->w.data(), p->w.data() + p->w.size(), dst);
        dst += p->w.size();
      }
    }
    // Handoff stats for the consumer endpoints this child held: fwd[b] is
    // consumed by owner(b+1), bwd[b] by owner(b).
    auto write_stats = [&](std::size_t ring_idx, const TransportChannel& ch) {
      const std::vector<double> w = ch.recv_wait_seconds();
      double* out = res + handoff_off + ring_idx * 4;
      out[0] = static_cast<double>(w.size());
      if (!w.empty()) {
        out[1] = percentile_nearest_rank(w, 50.0);
        out[2] = percentile_nearest_rank(w, 95.0);
        double sum = 0.0;
        for (const double x : w) sum += x;
        out[3] = sum / static_cast<double>(w.size());
      }
    };
    for (int b = 0; b + 1 < S; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      if (owner[bi + 1] == d) write_stats(bi, *fwd_ch[bi]);
      if (owner[bi] == d)
        write_stats(static_cast<std::size_t>(S - 1) + bi, *bwd_ch[bi]);
    }
    res[wall_off + static_cast<std::size_t>(d)] = wall;
  };

  // --- Fork, run, join ----------------------------------------------------
  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(D));
  for (int d = 0; d < D; ++d) {
    const pid_t pid = fork();
    PF_CHECK(pid >= 0) << "fork failed for device " << d;
    if (pid == 0) {
      int rc = 0;
      try {
        child_main(d);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[multiproc child %d] %s\n", d, e.what());
        rc = 1;
      } catch (...) {
        std::fprintf(stderr, "[multiproc child %d] unknown exception\n", d);
        rc = 2;
      }
      std::fflush(nullptr);
      // _exit: skip atexit/static destructors — the parent's state is not
      // ours to tear down, and the shared-region writes are already
      // visible (same physical pages).
      _exit(rc);
    }
    pids.push_back(pid);
  }
  std::string failures;
  for (int d = 0; d < D; ++d) {
    int status = 0;
    const pid_t r = waitpid(pids[static_cast<std::size_t>(d)], &status, 0);
    PF_CHECK(r == pids[static_cast<std::size_t>(d)]) << "waitpid failed";
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
    if (WIFEXITED(status))
      failures += format(" child %d exited %d;", d, WEXITSTATUS(status));
    else if (WIFSIGNALED(status))
      failures += format(" child %d killed by signal %d;", d, WTERMSIG(status));
    else
      failures += format(" child %d: unexpected status %d;", d, status);
  }
  PF_CHECK(failures.empty())
      << "multiproc run failed:" << failures << " (see stderr above)";

  // --- Assemble -----------------------------------------------------------
  MultiprocResult out;
  out.n_processes = D;
  for (int t = 0; t < steps; ++t) {
    const double* l = res + losses_off + static_cast<std::size_t>(t) * 3;
    out.trace.add(cfg.lr.lr(static_cast<std::size_t>(t)), {l[0], l[1], l[2]});
  }
  const double* src = res + params_off;
  for (int s = 0; s < S; ++s)
    for (const Param* p : partition.stage(s).params()) {
      out.params.emplace_back(src, src + p->w.size());
      src += p->w.size();
    }
  for (std::size_t r = 0; r < n_rings; ++r) {
    const double* h = res + handoff_off + r * 4;
    MultiprocHandoff mh;
    const auto b = static_cast<int>(r < static_cast<std::size_t>(S - 1)
                                        ? r
                                        : r - static_cast<std::size_t>(S - 1));
    mh.channel = r < static_cast<std::size_t>(S - 1)
                     ? format("fwd[%d->%d]", b, b + 1)
                     : format("bwd[%d->%d]", b + 1, b);
    mh.waits = static_cast<std::size_t>(h[0]);
    mh.wait_p50 = h[1];
    mh.wait_p95 = h[2];
    mh.wait_mean = h[3];
    out.handoff.push_back(std::move(mh));
  }
  for (int d = 0; d < D; ++d)
    out.wall_seconds =
        std::max(out.wall_seconds, res[wall_off + static_cast<std::size_t>(d)]);
  return out;
#endif
}

}  // namespace pf
