#include "src/perfmodel/autotune.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/pipeline/step_plan.h"
#include "src/train/pipeline_runtime.h"

namespace pf {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The sweep grid with every profile-independent viability check applied.
// Skipped entries keep their reasons so reports never silently drop a
// combination.
std::vector<AutotuneCandidate> enumerate_candidates(
    const AutotuneOptions& o) {
  const std::vector<std::string> names =
      o.schedules.empty() ? list_schedules() : o.schedules;
  const std::vector<int> stages = o.stage_candidates.empty()
                                      ? std::vector<int>{o.n_devices}
                                      : o.stage_candidates;
  const std::vector<int> micros = o.micro_candidates.empty()
                                      ? std::vector<int>{o.n_micro}
                                      : o.micro_candidates;
  std::vector<AutotuneCandidate> out;
  for (const std::string& name : names) {
    for (const int d : stages) {
      for (const int n : micros) {
        AutotuneCandidate c;
        c.schedule = name;
        c.params.n_stages = d;
        c.params.n_micro = n;
        c.params.virtual_chunks = o.virtual_chunks;
        const ScheduleTraits& tr = traits_of(name);
        if (!tr.flush) {
          c.skip_reason =
              "flushless: streams across step boundaries, no synchronous "
              "step to plan";
          out.push_back(c);
          continue;
        }
        if (tr.n_pipelines > 2) {
          c.skip_reason = format(
              "maps %d pipelines onto the devices; the executable runtime "
              "supports at most 2",
              tr.n_pipelines);
          out.push_back(c);
          continue;
        }
        try {
          tr.check_params(c.params);
        } catch (const Error& e) {
          c.skip_reason = e.what();
          out.push_back(c);
          continue;
        }
        c.model_stages = tr.model_stages(c.params);
        c.viable = true;  // provisional: ranking still needs a profile
        out.push_back(c);
      }
    }
  }
  PF_CHECK(!out.empty()) << "autotune sweep enumerated no candidates";
  return out;
}

// The exact StepPlan PipelineRuntime would execute for this candidate:
// same spec, same normalized event order (greedy realized order for
// dynamic schedules), factor counts from the fitted profile.
StepPlan candidate_plan(const AutotuneCandidate& c,
                        const CalibratedCosts& prof, bool use_kfac,
                        bool curv_step, bool inv_step) {
  const ScheduleSpec spec = build_schedule(c.schedule, c.params);
  PF_CHECK(spec.n_stages == prof.n_stages)
      << c.schedule << ": profile fitted at " << prof.n_stages
      << " model stages, candidate needs " << spec.n_stages;
  std::vector<std::size_t> factors(static_cast<std::size_t>(spec.n_stages),
                                   0);
  if (use_kfac)
    for (int s = 0; s < spec.n_stages; ++s)
      factors[static_cast<std::size_t>(s)] = static_cast<std::size_t>(
          prof.n_factors[static_cast<std::size_t>(s)] + 0.5);
  return build_step_plan(spec, plan_device_order(spec), factors,
                         use_kfac && curv_step, use_kfac && inv_step);
}

struct BurstResult {
  std::vector<double> makespans;  // executed, cold step excluded
  std::size_t threads = 0;
  StepPlan plan;  // the runtime's own curv+inv plan (burst intervals = 1)
};

// One live calibration run feeding `acc`. The first step is discarded
// (first-touch allocation + cache warmup); with curvature_interval =
// inverse_interval = 1 every remaining step exercises the full K-FAC
// cycle, maximizing samples per kind.
BurstResult run_burst(const BertConfig& model_cfg, const MlmBatcher& batcher,
                      const AutotuneOptions& o, const std::string& schedule,
                      int n_stages, CalibrationAccumulator& acc) {
  Rng rng(o.model_seed);
  BertModel model(model_cfg, rng);
  PipelineRuntimeConfig pc;
  pc.schedule = schedule;
  pc.n_stages = n_stages;
  pc.n_micro = std::max(o.n_micro, n_stages);
  pc.micro_batch_size = o.micro_batch_size;
  pc.total_steps = std::max<std::size_t>(o.burst_steps, 2);
  pc.lr = PolyWarmupSchedule(o.lr, 0, pc.total_steps);
  pc.data_seed = o.data_seed;
  pc.workers = o.workers;
  pc.stage_threads = o.stage_threads;
  pc.use_kfac = o.use_kfac;
  pc.kfac.curvature_interval = 1;
  pc.kfac.inverse_interval = 1;
  BurstResult r;
  std::size_t idx = 0;
  pc.step_observer = [&](const Timeline& tl) {
    if (idx++ == 0) return;
    acc.ingest(tl);
    r.makespans.push_back(tl.makespan() - tl.earliest_start());
  };
  PipelineRuntime rt(model, batcher, pc);
  rt.run();
  r.threads = rt.executor_threads();
  r.plan = rt.make_step_plan(o.use_kfac, o.use_kfac);
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
    try {
      const auto threads = static_cast<std::size_t>(prof.n_threads);
      const auto pred_curv =
          predict_step(candidate_plan(c, prof, options.use_kfac, true, false),
                       prof, threads);
      const auto pred_inv =
          predict_step(candidate_plan(c, prof, options.use_kfac, true, true),
                       prof, threads);
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
    try {
      const BurstResult fused = run_burst(model_cfg, batcher, options, "1f1b",
                                          s, acc);
      if (needed_split.count(s) > 0)
        run_burst(model_cfg, batcher, options, "zb-h1", s, acc);
      CalibratedCosts prof = acc.fit(static_cast<int>(fused.threads));
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
    for (AutotuneCandidate& c : report.ranked) {
      if (!c.viable) continue;
      Rng rng(options.model_seed);
      BertModel model(model_cfg, rng);
      PipelineRuntimeConfig pc;
      pc.schedule = c.schedule;
      pc.n_stages = c.params.n_stages;
      pc.n_micro = c.params.n_micro;
      pc.virtual_chunks = c.params.virtual_chunks;
      pc.micro_batch_size = options.micro_batch_size;
      pc.total_steps = options.measure_steps;
      pc.lr = PolyWarmupSchedule(options.lr, 0, pc.total_steps);
      pc.data_seed = options.data_seed;
      pc.workers = options.workers;
      pc.stage_threads = options.stage_threads;
      pc.use_kfac = options.use_kfac;
      pc.kfac.curvature_interval = 1;
      pc.kfac.inverse_interval = options.inverse_interval;
      double total = 0.0;
      std::size_t n = 0, idx = 0;
      pc.step_observer = [&](const Timeline& tl) {
        if (idx++ == 0) return;  // cold step
        total += tl.makespan() - tl.earliest_start();
        ++n;
      };
      PipelineRuntime rt(model, batcher, pc);
      rt.run();
      if (n > 0) c.executed_makespan = total / static_cast<double>(n);
    }
  }
  return report;
}

}  // namespace pf
