#include "src/perfmodel/autotune.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "src/common/check.h"
#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/pipeline/step_plan.h"
#include "src/train/pipeline_runtime.h"
#include "src/train/plan_binder.h"

namespace pf {

namespace {

// What every live run shares (autotune.h): seeds, base learning rate and
// interleaved-1f1b's chunks per device.
constexpr unsigned kModelSeed = 7;
constexpr std::uint64_t kDataSeed = 99;
constexpr double kLr = 1e-2;
constexpr int kVirtualChunks = 2;

// The sweep grid — one (n_devices, n_micro) point per schedule — with every
// profile-independent viability check applied. Skipped entries keep their
// reasons so reports never silently drop a combination.
std::vector<AutotuneCandidate> enumerate_candidates(
    const AutotuneOptions& o) {
  const std::vector<std::string> names =
      o.schedules.empty() ? list_schedules() : o.schedules;
  std::vector<AutotuneCandidate> out;
  for (const std::string& name : names) {
    AutotuneCandidate c;
    c.schedule = name;
    c.params.n_stages = o.n_devices;
    c.params.n_micro = o.n_micro;
    c.params.virtual_chunks = kVirtualChunks;
    const ScheduleTraits& tr = traits_of(name);
    if (!tr.flush) {
      c.skip_reason =
          "flushless: streams across step boundaries, no synchronous step "
          "to plan";
    } else if (tr.n_pipelines > 2) {
      c.skip_reason = format(
          "maps %d pipelines onto the devices; the executable runtime "
          "supports at most 2",
          tr.n_pipelines);
    } else {
      try {
        tr.check_params(c.params);
        c.model_stages = tr.model_stages(c.params);
        c.viable = true;  // provisional: ranking still needs a profile
      } catch (const Error& e) {
        c.skip_reason = e.what();
      }
    }
    out.push_back(c);
  }
  PF_CHECK(!out.empty()) << "autotune sweep enumerated no candidates";
  return out;
}

// The exact StepPlan PipelineRuntime would execute for this candidate:
// same spec, same normalized event order (greedy realized order for
// dynamic schedules), the profile's K-FAC factor layout.
StepPlan candidate_plan(const AutotuneCandidate& c,
                        const CalibratedCosts& prof, bool inv_step) {
  const ScheduleSpec spec = build_schedule(c.schedule, c.params);
  PF_CHECK(spec.n_stages == prof.n_stages)
      << c.schedule << ": profile fitted at " << prof.n_stages
      << " model stages, candidate needs " << spec.n_stages;
  return build_step_plan(spec, plan_device_order(spec), prof.kfac_factors,
                         true, inv_step);
}

struct LiveRun {
  std::vector<double> makespans;  // executed, cold step excluded
  std::size_t threads = 0;
  StepPlan plan;  // the runtime's own curv+inv plan
  KfacFactors kfac_factors;  // the plan's K-FAC factors
};

// One live PipelineRuntime run of `steps` steps: a calibration burst (which
// hands each kept timeline to `acc`) or a candidate's measured window. The
// first step is discarded (first-touch allocation + cache warmup).
LiveRun run_live(const BertConfig& model_cfg, const MlmBatcher& batcher,
                 const AutotuneOptions& o, const std::string& schedule,
                 const ScheduleParams& params, std::size_t steps,
                 int inverse_interval, CalibrationAccumulator* acc) {
  Rng rng(kModelSeed);
  BertModel model(model_cfg, rng);
  PipelineRuntimeConfig pc;
  pc.schedule = schedule;
  pc.n_stages = params.n_stages;
  pc.n_micro = params.n_micro;
  pc.virtual_chunks = params.virtual_chunks;
  pc.micro_batch_size = o.micro_batch_size;
  pc.total_steps = steps;
  pc.lr = PolyWarmupSchedule(kLr, 0, steps);
  pc.data_seed = kDataSeed;
  pc.workers = o.workers;
  pc.stage_threads = 1;
  pc.use_kfac = true;
  pc.kfac.curvature_interval = 1;
  pc.kfac.inverse_interval = inverse_interval;
  LiveRun r;
  PipelineRuntime rt(model, batcher, pc);
  for (std::size_t i = 0; i < steps; ++i) {
    rt.step();
    if (i == 0) continue;  // cold step
    const Timeline& tl = rt.last_executed_timeline();
    if (acc != nullptr) acc->ingest(tl);
    r.makespans.push_back(tl.makespan() - tl.earliest_start());
  }
  r.threads = rt.executor_threads();
  r.plan = rt.make_step_plan(true, true);
  r.kfac_factors =
      kfac_factors(BertStagePartition(model, rt.spec().n_stages), true);
  return r;
}

double mean(const std::vector<double>& v) {
  double t = 0.0;
  for (const double x : v) t += x;
  return v.empty() ? 0.0 : t / static_cast<double>(v.size());
}

}  // namespace

const AutotuneCandidate& AutotuneReport::winner() const {
  PF_CHECK(!ranked.empty() && ranked.front().viable)
      << "autotune produced no viable candidate";
  return ranked.front();
}

std::vector<AutotuneCandidate> rank_candidates(
    const std::map<int, CalibratedCosts>& profiles,
    const AutotuneOptions& options) {
  std::vector<AutotuneCandidate> out = enumerate_candidates(options);
  for (AutotuneCandidate& c : out) {
    if (!c.viable) continue;
    const auto it = profiles.find(c.model_stages);
    if (it == profiles.end()) {
      c.viable = false;
      c.skip_reason =
          format("no calibrated profile at %d model stages", c.model_stages);
      continue;
    }
    const CalibratedCosts& prof = it->second;
    if (prof.kfac_factors.input_owner.size() !=
        static_cast<std::size_t>(c.model_stages)) {
      c.viable = false;
      c.skip_reason = format(
          "the calibrated profile at %d model stages has no K-FAC factor "
          "layout",
          c.model_stages);
      continue;
    }
    try {
      const auto threads = static_cast<std::size_t>(prof.n_threads);
      const auto pred_curv =
          predict_step(candidate_plan(c, prof, false), prof, threads);
      const auto pred_inv =
          predict_step(candidate_plan(c, prof, true), prof, threads);
      const double interval =
          static_cast<double>(std::max(1, options.inverse_interval));
      c.predicted_makespan =
          ((interval - 1.0) * pred_curv.makespan + pred_inv.makespan) /
          interval;
      c.predicted_utilization =
          (interval > 1.0 ? pred_curv : pred_inv).utilization();
      c.predicted_seconds_per_sequence =
          c.predicted_makespan /
          (static_cast<double>(c.params.n_micro) *
           static_cast<double>(options.micro_batch_size));
    } catch (const Error& e) {
      c.viable = false;
      c.skip_reason = e.what();
    }
  }
  // Fastest predicted first; skipped candidates sink to the bottom. The
  // tie-breaks keep the order a pure function of (profiles, options).
  std::stable_sort(out.begin(), out.end(),
                   [](const AutotuneCandidate& a, const AutotuneCandidate& b) {
                     if (a.viable != b.viable) return a.viable;
                     if (!a.viable) return false;
                     if (a.predicted_seconds_per_sequence !=
                         b.predicted_seconds_per_sequence)
                       return a.predicted_seconds_per_sequence <
                              b.predicted_seconds_per_sequence;
                     if (a.schedule != b.schedule) return a.schedule < b.schedule;
                     if (a.params.n_stages != b.params.n_stages)
                       return a.params.n_stages < b.params.n_stages;
                     return a.params.n_micro < b.params.n_micro;
                   });
  return out;
}

AutotuneReport autotune(const BertConfig& model_cfg, const MlmBatcher& batcher,
                        const AutotuneOptions& options) {
  AutotuneReport report;
  const std::vector<AutotuneCandidate> grid = enumerate_candidates(options);

  // Profiles are keyed by MODEL-stage count: a D-device interleaved
  // candidate with V chunks reads per-stage costs at D·V stages, so its
  // burst partitions the model that finely too.
  std::set<int> needed, needed_split;
  for (const AutotuneCandidate& c : grid) {
    if (!c.viable) continue;
    needed.insert(c.model_stages);
    if (traits_of(c.schedule).split_backward)
      needed_split.insert(c.model_stages);
  }

  const double t0 = now_seconds();
  for (const int s : needed) {
    CalibrationAccumulator acc(s);
    ScheduleParams p;
    p.n_stages = s;
    p.n_micro = std::max(options.n_micro, s);
    p.virtual_chunks = kVirtualChunks;
    const std::size_t steps = std::max<std::size_t>(options.burst_steps, 2);
    // Inverse interval 1: every kept step runs the full K-FAC cycle, so
    // every kind gets samples.
    try {
      const LiveRun fused =
          run_live(model_cfg, batcher, options, "1f1b", p, steps, 1, &acc);
      if (needed_split.count(s) > 0)
        run_live(model_cfg, batcher, options, "zb-h1", p, steps, 1, &acc);
      CalibratedCosts prof = acc.fit(static_cast<int>(fused.threads));
      prof.kfac_factors = fused.kfac_factors;
      // Residual: executed over replayed makespan of the burst itself.
      // Per-task means can't see dispatch latency or contention variance;
      // this one scalar folds them back in.
      const double replayed =
          predict_step(fused.plan, prof, fused.threads).makespan;
      const double executed = mean(fused.makespans);
      PF_CHECK(replayed > 0.0 && executed > 0.0);
      prof.residual_scale = executed / replayed;
      report.profiles[s] = prof;
      report.burst_steps_run += acc.steps_ingested();
    } catch (const Error&) {
      // No profile at this stage count (model too shallow, schedule
      // constraints, ...); rank_candidates reports the affected
      // candidates as skipped.
    }
  }
  report.burst_seconds = now_seconds() - t0;

  report.ranked = rank_candidates(report.profiles, options);

  if (options.measure_steps > 0) {
    PF_CHECK(options.measure_steps >= 2)
        << "measure_steps >= 2 required (the cold step is discarded)";
    for (AutotuneCandidate& c : report.ranked)
      if (c.viable)
        c.executed_makespan =
            mean(run_live(model_cfg, batcher, options, c.schedule, c.params,
                          options.measure_steps, options.inverse_interval,
                          nullptr)
                     .makespans);
  }
  return report;
}

}  // namespace pf
