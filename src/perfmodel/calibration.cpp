#include "src/perfmodel/calibration.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace pf {

namespace {

double vec_at(const std::vector<double>& v, int stage) {
  PF_CHECK(stage >= 0 && static_cast<std::size_t>(stage) < v.size())
      << "stage " << stage << " outside the profile's " << v.size()
      << " stages";
  return v[static_cast<std::size_t>(stage)];
}

}  // namespace

double CalibratedCosts::fused_backward(int stage) const {
  const double fused = vec_at(t_backward, stage);
  if (fused > 0.0) return fused;
  return vec_at(t_backward_b, stage) + vec_at(t_backward_w, stage);
}

double CalibratedCosts::split_backward_b(int stage) const {
  const double b = vec_at(t_backward_b, stage);
  if (b > 0.0) return b;
  return fused_backward(stage) * (1.0 - backward_w_fraction);
}

double CalibratedCosts::split_backward_w(int stage) const {
  const double w = vec_at(t_backward_w, stage);
  if (w > 0.0) return w;
  return fused_backward(stage) * backward_w_fraction;
}

double CalibratedCosts::task_seconds(WorkKind kind, int stage,
                                     bool split) const {
  double v = 0.0;
  bool may_be_zero = false;
  switch (kind) {
    case WorkKind::kForward:
      v = vec_at(t_forward, stage);
      break;
    case WorkKind::kBackward:
      v = split ? split_backward_b(stage) : fused_backward(stage);
      break;
    case WorkKind::kBackwardWeight:
      v = split_backward_w(stage);
      break;
    case WorkKind::kCurvatureA:
      v = vec_at(t_curvature_a, stage);
      break;
    case WorkKind::kCurvatureB:
      v = vec_at(t_curvature_b, stage);
      break;
    case WorkKind::kSyncCurvature:
      v = vec_at(t_commit, stage);
      may_be_zero = true;
      break;
    case WorkKind::kInversionA:
      v = vec_at(t_inversion_a, stage);
      break;
    case WorkKind::kInversionB:
      v = vec_at(t_inversion_b, stage);
      break;
    case WorkKind::kPrecondition:
      v = vec_at(t_precondition, stage);
      break;
    // The tail bookkeeping tasks are legitimately near-free (g *= 1/N on a
    // tiny stage) and synthetic traces may not record them at all.
    case WorkKind::kSyncGrad:
      v = vec_at(t_grad_final, stage);
      may_be_zero = true;
      break;
    case WorkKind::kOptimizerUpdate:
      v = vec_at(t_optimizer, stage);
      may_be_zero = true;
      break;
    default:
      PF_CHECK(false) << "no fitted cost bucket for kind "
                      << work_kind_name(kind);
  }
  PF_CHECK(may_be_zero || v > 0.0)
      << "profile has no fitted " << work_kind_name(kind) << " cost for stage "
      << stage << " — the calibration burst must exercise this kind";
  return v;
}

// --- Accumulator ----------------------------------------------------------

CalibrationAccumulator::CalibrationAccumulator(int n_stages)
    : n_stages_(n_stages),
      factors_seen_(static_cast<std::size_t>(n_stages)) {
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
        if (split && iv.kind == WorkKind::kBackward) {
          Stat& st = split_b_[iv.stage];
          ++st.count;
          st.total += iv.duration();
        } else {
          Stat& st = fused_[{iv.kind, iv.stage}];
          ++st.count;
          st.total += iv.duration();
        }
        if (iv.layer >= 0 && is_kfac_kind(iv.kind))
          factors_seen_[static_cast<std::size_t>(iv.stage)].insert(
              {iv.layer, iv.factor});
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

  const auto zeros = std::vector<double>(static_cast<std::size_t>(n_stages_),
                                         0.0);
  c.n_factors = zeros;
  c.t_forward = zeros;
  c.t_backward = zeros;
  c.t_backward_b = zeros;
  c.t_backward_w = zeros;
  c.t_curvature_a = zeros;
  c.t_curvature_b = zeros;
  c.t_commit = zeros;
  c.t_inversion_a = zeros;
  c.t_inversion_b = zeros;
  c.t_precondition = zeros;
  c.t_grad_final = zeros;
  c.t_optimizer = zeros;

  auto fill = [&](WorkKind kind, std::vector<double>& dst) {
    for (int s = 0; s < n_stages_; ++s) {
      const auto it = fused_.find({kind, s});
      if (it != fused_.end() && it->second.count > 0)
        dst[static_cast<std::size_t>(s)] =
            it->second.total / static_cast<double>(it->second.count);
    }
  };
  fill(WorkKind::kForward, c.t_forward);
  fill(WorkKind::kBackward, c.t_backward);
  fill(WorkKind::kBackwardWeight, c.t_backward_w);
  fill(WorkKind::kCurvatureA, c.t_curvature_a);
  fill(WorkKind::kCurvatureB, c.t_curvature_b);
  fill(WorkKind::kSyncCurvature, c.t_commit);
  fill(WorkKind::kInversionA, c.t_inversion_a);
  fill(WorkKind::kInversionB, c.t_inversion_b);
  fill(WorkKind::kPrecondition, c.t_precondition);
  fill(WorkKind::kSyncGrad, c.t_grad_final);
  fill(WorkKind::kOptimizerUpdate, c.t_optimizer);
  for (const auto& [s, st] : split_b_)
    if (st.count > 0)
      c.t_backward_b[static_cast<std::size_t>(s)] =
          st.total / static_cast<double>(st.count);

  for (int s = 0; s < n_stages_; ++s)
    c.n_factors[static_cast<std::size_t>(s)] = static_cast<double>(
        factors_seen_[static_cast<std::size_t>(s)].size());

  // The executed B/W split: totals across stages so factor-heavy stages
  // weigh in proportionally.
  double total_b = 0.0, total_w = 0.0;
  for (const auto& [s, st] : split_b_) total_b += st.total;
  for (int s = 0; s < n_stages_; ++s) {
    const auto it = fused_.find({WorkKind::kBackwardWeight, s});
    if (it != fused_.end()) total_w += it->second.total;
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

void append_vec(std::string& out, const char* name,
                const std::vector<double>& v) {
  out += format("  \"%s\": [", name);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    append_num(out, v[i]);
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
  append_vec(out, "n_factors", n_factors);
  append_vec(out, "t_forward", t_forward);
  append_vec(out, "t_backward", t_backward);
  append_vec(out, "t_backward_b", t_backward_b);
  append_vec(out, "t_backward_w", t_backward_w);
  append_vec(out, "t_curvature_a", t_curvature_a);
  append_vec(out, "t_curvature_b", t_curvature_b);
  append_vec(out, "t_commit", t_commit);
  append_vec(out, "t_inversion_a", t_inversion_a);
  append_vec(out, "t_inversion_b", t_inversion_b);
  append_vec(out, "t_precondition", t_precondition);
  append_vec(out, "t_grad_final", t_grad_final);
  append_vec(out, "t_optimizer", t_optimizer);
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
