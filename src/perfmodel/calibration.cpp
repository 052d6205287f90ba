#include "src/perfmodel/calibration.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace pf {

double CalibratedCosts::mean(WorkKind kind, int stage, bool split_b) const {
  PF_CHECK(stage >= 0 && stage < n_stages)
      << "stage " << stage << " outside the profile's " << n_stages
      << " stages";
  const auto it = mean_seconds.find({kind, stage, split_b});
  return it == mean_seconds.end() ? 0.0 : it->second;
}

double CalibratedCosts::fused_backward(int stage) const {
  const double fused = mean(WorkKind::kBackward, stage);
  if (fused > 0.0) return fused;
  return mean(WorkKind::kBackward, stage, true) +
         mean(WorkKind::kBackwardWeight, stage);
}

double CalibratedCosts::split_backward_b(int stage) const {
  const double b = mean(WorkKind::kBackward, stage, true);
  if (b > 0.0) return b;
  return fused_backward(stage) * (1.0 - backward_w_fraction);
}

double CalibratedCosts::split_backward_w(int stage) const {
  const double w = mean(WorkKind::kBackwardWeight, stage);
  if (w > 0.0) return w;
  return fused_backward(stage) * backward_w_fraction;
}

double CalibratedCosts::task_seconds(WorkKind kind, int stage,
                                     bool split) const {
  double v = 0.0;
  if (kind == WorkKind::kBackward)
    v = split ? split_backward_b(stage) : fused_backward(stage);
  else if (kind == WorkKind::kBackwardWeight)
    v = split_backward_w(stage);
  else
    v = mean(kind, stage);
  // The commit and the tail bookkeeping tasks are legitimately near-free
  // (g *= 1/N on a tiny stage) and synthetic traces may not record them.
  const bool may_be_zero = kind == WorkKind::kSyncCurvature ||
                           kind == WorkKind::kSyncGrad ||
                           kind == WorkKind::kOptimizerUpdate;
  PF_CHECK(may_be_zero || v > 0.0)
      << "profile has no fitted " << work_kind_name(kind) << " cost for stage "
      << stage << " — the calibration burst must exercise this kind";
  return v;
}

// --- Accumulator ----------------------------------------------------------

CalibrationAccumulator::CalibrationAccumulator(int n_stages)
    : n_stages_(n_stages) {
  PF_CHECK(n_stages >= 1);
}

void CalibrationAccumulator::ingest(const Timeline& timeline) {
  // Split-backward detection: zb-h1 steps always contain W intervals, so
  // their kBackward intervals are B (dx) passes, not fused backwards.
  bool split = false;
  for (std::size_t d = 0; d < timeline.n_devices() && !split; ++d)
    for (const Interval& iv : timeline.device_intervals(d))
      if (iv.kind == WorkKind::kBackwardWeight) {
        split = true;
        break;
      }

  // Producer end times for handoff fitting: forward chains flow s-1 -> s,
  // backward chains s+1 -> s; (stage, micro) is unique per step.
  std::map<std::pair<int, int>, Interval> fwd_by_sm, bwd_by_sm;
  for (std::size_t d = 0; d < timeline.n_devices(); ++d) {
    for (const Interval& iv : timeline.device_intervals(d)) {
      if (iv.micro < 0 || iv.stage < 0) continue;
      if (iv.kind == WorkKind::kForward) fwd_by_sm[{iv.stage, iv.micro}] = iv;
      if (iv.kind == WorkKind::kBackward) bwd_by_sm[{iv.stage, iv.micro}] = iv;
    }
  }

  for (std::size_t d = 0; d < timeline.n_devices(); ++d) {
    double prev_end = 0.0;
    for (const Interval& iv : timeline.device_intervals(d)) {
      if (iv.stage >= 0) {
        PF_CHECK(iv.stage < n_stages_)
            << "interval stage " << iv.stage << " outside the accumulator's "
            << n_stages_ << " stages";
        Stat& st = buckets_[{iv.kind, iv.stage,
                             split && iv.kind == WorkKind::kBackward}];
        ++st.count;
        st.total += iv.duration();
        ++samples_;
      }

      // Handoff sample: the consumer's lane was idle before the producer
      // finished (prev_end <= producer.end), so the whole gap between
      // producer end and consumer start is channel handoff + dispatch
      // latency, not contention.
      const Interval* producer = nullptr;
      if (iv.kind == WorkKind::kForward && iv.stage > 0) {
        const auto it = fwd_by_sm.find({iv.stage - 1, iv.micro});
        if (it != fwd_by_sm.end()) producer = &it->second;
      } else if (iv.kind == WorkKind::kBackward && iv.stage + 1 < n_stages_) {
        const auto it = bwd_by_sm.find({iv.stage + 1, iv.micro});
        if (it != bwd_by_sm.end()) producer = &it->second;
      }
      if (producer != nullptr && producer->device != iv.device &&
          prev_end <= producer->end)
        handoff_samples_.push_back(std::max(0.0, iv.start - producer->end));
      prev_end = std::max(prev_end, iv.end);
    }
  }
  ++steps_;
}

void CalibrationAccumulator::add_handoff_sample(double seconds) {
  PF_CHECK(seconds >= 0.0) << "negative handoff sample";
  handoff_samples_.push_back(seconds);
}

CalibratedCosts CalibrationAccumulator::fit(int n_threads) const {
  PF_CHECK(steps_ > 0 || !handoff_samples_.empty())
      << "fit() before any timeline or handoff sample was ingested";
  CalibratedCosts c;
  c.n_stages = n_stages_;
  c.n_threads = n_threads;
  c.samples = samples_;

  // The executed B/W split: totals across stages so factor-heavy stages
  // weigh in proportionally.
  double total_b = 0.0, total_w = 0.0;
  for (const auto& [key, st] : buckets_) {
    c.mean_seconds[key] = st.total / static_cast<double>(st.count);
    if (key.split_b) total_b += st.total;
    if (key.kind == WorkKind::kBackwardWeight) total_w += st.total;
  }
  if (total_w > 0.0 && total_b > 0.0)
    c.backward_w_fraction = total_w / (total_b + total_w);

  // Handoff: a low percentile of the idle-consumer gap samples — the fixed
  // channel + wakeup cost, robust to samples inflated by thread shortage.
  if (!handoff_samples_.empty()) {
    std::vector<double> sorted = handoff_samples_;
    std::sort(sorted.begin(), sorted.end());
    c.t_handoff = sorted[sorted.size() / 10];
  }
  return c;
}

// --- JSON -----------------------------------------------------------------

namespace {

constexpr const char* kSchema = "pf-calibrated-costs-v1";

void append_num(std::string& out, double v) {
  out += format("%.17g", v);
}

// One per-stage array: `"name": [v(0), v(1), ...],`.
template <typename PerStage>
void append_row(std::string& out, const char* name, int n_stages,
                PerStage v) {
  out += format("  \"%s\": [", name);
  for (int s = 0; s < n_stages; ++s) {
    if (s > 0) out += ", ";
    append_num(out, v(s));
  }
  out += "],\n";
}

}  // namespace

std::string CalibratedCosts::to_json() const {
  std::string out = "{\n";
  out += format("  \"schema\": \"%s\",\n", kSchema);
  out += format("  \"n_stages\": %d,\n", n_stages);
  out += format("  \"n_threads\": %d,\n", n_threads);
  out += "  \"residual_scale\": ";
  append_num(out, residual_scale);
  out += ",\n  \"t_handoff\": ";
  append_num(out, t_handoff);
  out += ",\n  \"backward_w_fraction\": ";
  append_num(out, backward_w_fraction);
  out += format(",\n  \"samples\": %zu,\n", samples);
  const auto& owners = kfac_factors.input_owner;
  append_row(out, "n_factors", n_stages, [&](int s) {
    const auto i = static_cast<std::size_t>(s);
    return i < owners.size() ? static_cast<double>(owners[i].size()) : 0.0;
  });
  for (const CostRow& row : kCostRows)
    append_row(out, row.name, n_stages,
               [&](int s) { return mean(row.kind, s, row.split_b); });
  out += "  \"end\": 0\n}";
  return out;
}

// --- Plan replay ----------------------------------------------------------

PlanPrediction predict_step(const StepPlan& plan, const CalibratedCosts& costs,
                            std::size_t n_threads) {
  PF_CHECK(costs.residual_scale > 0.0);
  std::vector<double> seconds;
  seconds.reserve(plan.tasks.size());
  for (const PlannedTask& t : plan.tasks)
    seconds.push_back(
        costs.task_seconds(t.kind, t.stage, plan.split_backward) *
        costs.residual_scale);
  const PlanReplay r = replay_plan(plan, seconds, costs.t_handoff, n_threads);
  PlanPrediction out;
  out.makespan = r.makespan;
  out.timeline = replay_timeline(plan, r);
  return out;
}

}  // namespace pf
