#include "tests/support/op_start.h"

#include "src/common/check.h"

namespace pf {

double op_start(const ScheduleSpec& spec, const StepSimResult& res,
                const PipeOp& op) {
  const WorkKind kind = op.type == OpType::kForward ? WorkKind::kForward
                        : op.type == OpType::kBackward
                            ? WorkKind::kBackward
                            : WorkKind::kBackwardWeight;
  const auto device =
      static_cast<std::size_t>(spec.device_of(op.pipeline, op.stage));
  for (const Interval& iv : res.timeline.device_intervals(device))
    if (iv.kind == kind && iv.stage == op.stage && iv.micro == op.micro)
      return iv.start;
  PF_CHECK(false) << "op not executed: " << op_debug(op);
  __builtin_unreachable();
}

}  // namespace pf
