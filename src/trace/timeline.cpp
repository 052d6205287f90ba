#include "src/trace/timeline.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pf {

const char* work_kind_name(WorkKind k) {
  switch (k) {
    case WorkKind::kForward: return "forward";
    case WorkKind::kBackward: return "backward";
    case WorkKind::kBackwardWeight: return "backward-w";
    case WorkKind::kCurvatureA: return "curvatureA";
    case WorkKind::kCurvatureB: return "curvatureB";
    case WorkKind::kInversionA: return "inversionA";
    case WorkKind::kInversionB: return "inversionB";
    case WorkKind::kPrecondition: return "precondition";
    case WorkKind::kSyncGrad: return "sync-grad";
    case WorkKind::kSyncCurvature: return "sync-curvature";
    case WorkKind::kOptimizerUpdate: return "optimizer";
    case WorkKind::kEigendecomposition: return "eigendecomposition";
    case WorkKind::kSamForward: return "sam-forward";
    case WorkKind::kSamBackward: return "sam-backward";
    case WorkKind::kAdmission: return "admission";
  }
  return "?";
}

char work_kind_glyph(WorkKind k) {
  switch (k) {
    case WorkKind::kForward: return 'F';
    case WorkKind::kBackward: return 'B';
    case WorkKind::kBackwardWeight: return 'W';
    case WorkKind::kCurvatureA: return 'a';
    case WorkKind::kCurvatureB: return 'b';
    case WorkKind::kInversionA: return 'I';
    case WorkKind::kInversionB: return 'J';
    case WorkKind::kPrecondition: return 'P';
    case WorkKind::kSyncGrad: return 'g';
    case WorkKind::kSyncCurvature: return 'c';
    case WorkKind::kOptimizerUpdate: return 'U';
    case WorkKind::kEigendecomposition: return 'E';
    case WorkKind::kSamForward: return 's';
    case WorkKind::kSamBackward: return 'S';
    case WorkKind::kAdmission: return 'Q';
  }
  return '?';
}

bool counts_as_busy(WorkKind k) {
  // The paper colors forward/backward/curvature/inverse/sync/precondition;
  // the optimizer update is a real kernel, so it counts. Admission is
  // queue-wait dominated (it blocks on request arrival), so utilization
  // treats it as idle time.
  return k != WorkKind::kAdmission;
}

void Timeline::add(const Interval& iv) {
  PF_CHECK(iv.device < per_device_.size())
      << "device " << iv.device << " out of range";
  PF_CHECK(iv.end >= iv.start)
      << "interval ends before it starts: " << iv.start << ".." << iv.end;
  auto& v = per_device_[iv.device];
  if (!v.empty()) {
    PF_CHECK(iv.start >= v.back().end - 1e-12)
        << "overlapping interval on device " << iv.device << ": new start "
        << iv.start << " < previous end " << v.back().end;
  }
  v.push_back(iv);
}

const std::vector<Interval>& Timeline::device_intervals(std::size_t d) const {
  PF_CHECK(d < per_device_.size());
  return per_device_[d];
}

std::vector<Interval> Timeline::all_intervals() const {
  std::vector<Interval> out;
  for (const auto& v : per_device_) out.insert(out.end(), v.begin(), v.end());
  return out;
}

double Timeline::makespan() const {
  double m = 0.0;
  for (const auto& v : per_device_)
    if (!v.empty()) m = std::max(m, v.back().end);
  return m;
}

double Timeline::earliest_start() const {
  double m = makespan();
  bool any = false;
  for (const auto& v : per_device_)
    if (!v.empty()) {
      m = std::min(m, v.front().start);
      any = true;
    }
  return any ? m : 0.0;
}

double Timeline::busy_time(std::size_t device, double t0, double t1) const {
  PF_CHECK(device < per_device_.size());
  PF_CHECK(t1 >= t0);
  double busy = 0.0;
  for (const auto& iv : per_device_[device]) {
    if (!counts_as_busy(iv.kind)) continue;
    const double s = std::max(iv.start, t0);
    const double e = std::min(iv.end, t1);
    if (e > s) busy += e - s;
  }
  return busy;
}

double Timeline::utilization(double t0, double t1) const {
  PF_CHECK(t1 > t0);
  double total = 0.0;
  for (std::size_t d = 0; d < per_device_.size(); ++d)
    total += busy_time(d, t0, t1) / (t1 - t0);
  return total / static_cast<double>(per_device_.size());
}

double Timeline::utilization() const {
  const double t0 = earliest_start();
  const double t1 = makespan();
  PF_CHECK(t1 > t0) << "empty timeline";
  return utilization(t0, t1);
}

std::vector<Timeline::Gap> Timeline::gaps(std::size_t device, double t0,
                                          double t1) const {
  PF_CHECK(device < per_device_.size());
  std::vector<Gap> out;
  double cursor = t0;
  for (const auto& iv : per_device_[device]) {
    if (iv.end <= t0) continue;
    if (iv.start >= t1) break;
    if (iv.start > cursor) out.push_back({cursor, std::min(iv.start, t1)});
    cursor = std::max(cursor, iv.end);
    if (cursor >= t1) break;
  }
  if (cursor < t1) out.push_back({cursor, t1});
  // Drop zero-width artifacts.
  std::erase_if(out, [](const Gap& g) { return g.duration() <= 1e-12; });
  return out;
}

double Timeline::bubble_time(std::size_t device, double t0, double t1) const {
  double total = 0.0;
  for (const auto& g : gaps(device, t0, t1)) total += g.duration();
  return total;
}

void Timeline::append_shifted(const Timeline& other, double dt) {
  PF_CHECK(other.n_devices() == n_devices());
  for (std::size_t d = 0; d < n_devices(); ++d) {
    for (Interval iv : other.per_device_[d]) {
      iv.start += dt;
      iv.end += dt;
      add(iv);
    }
  }
}

}  // namespace pf
