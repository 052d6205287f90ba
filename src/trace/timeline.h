// Timeline: the simulated analog of the paper's Nsight kernel profiles.
//
// Every piece of simulated work is recorded as a per-device interval tagged
// with a WorkKind. "GPU utilization" (Figures 3 & 4) is the fraction of the
// plotted window covered by work intervals, per device, averaged — the same
// definition the paper derives from CUPTI kernel activities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pf {

enum class WorkKind {
  kForward,
  kBackward,
  // Zero-bubble split (ZB-H1): kBackward is the B (dx) pass, this is the
  // deferred W (dW) pass slotted into what would otherwise be bubbles.
  kBackwardWeight,
  kCurvatureA,
  kCurvatureB,
  kInversionA,
  kInversionB,
  kPrecondition,
  kSyncGrad,
  kSyncCurvature,
  kOptimizerUpdate,
  // §5 extensions: Shampoo eigendecompositions and SAM's extra passes.
  kEigendecomposition,
  kSamForward,
  kSamBackward,
  // Serving-mode admission/refill work (src/serve): forming the next
  // micro-batch from the request queue, dispatched into lane idle gaps.
  kAdmission,
};

// Short display name ("fwd", "bwd", "curvA", ...).
const char* work_kind_name(WorkKind k);
// Single character used by the ASCII Gantt ('F', 'B', 'a', 'b', 'I', ...).
char work_kind_glyph(WorkKind k);
// Whether the paper's utilization metric counts this kind as busy.
bool counts_as_busy(WorkKind k);

struct Interval {
  std::size_t device;
  double start;
  double end;
  WorkKind kind;
  // Work identity, for assertions and labels.
  int stage = -1;
  int micro = -1;
  int layer = -1;   // block index within stage, or -1
  int factor = -1;  // linear index within block, or -1

  double duration() const { return end - start; }
};

class Timeline {
 public:
  Timeline() = default;  // zero devices; reassign before use
  explicit Timeline(std::size_t n_devices) : per_device_(n_devices) {}

  std::size_t n_devices() const { return per_device_.size(); }

  // Adds an interval; intervals on one device must not overlap.
  void add(const Interval& iv);

  const std::vector<Interval>& device_intervals(std::size_t d) const;
  std::vector<Interval> all_intervals() const;

  // Latest end time across devices (0 if empty).
  double makespan() const;
  // Earliest start across devices (0 if empty).
  double earliest_start() const;

  // Busy time of one device inside [t0, t1], counting only kinds for which
  // counts_as_busy() is true.
  double busy_time(std::size_t device, double t0, double t1) const;

  // Paper-style utilization over [t0, t1]: mean over devices of
  // busy/(t1-t0).
  double utilization(double t0, double t1) const;
  double utilization() const;  // over [earliest_start, makespan]

  // Idle gaps of a device inside [t0, t1] (the pipeline bubbles).
  struct Gap {
    double start;
    double end;
    double duration() const { return end - start; }
  };
  std::vector<Gap> gaps(std::size_t device, double t0, double t1) const;

  // Total bubble time of a device in the window.
  double bubble_time(std::size_t device, double t0, double t1) const;

  // Append all intervals of `other` shifted by dt (device-aligned).
  void append_shifted(const Timeline& other, double dt);

 private:
  std::vector<std::vector<Interval>> per_device_;
};

}  // namespace pf
