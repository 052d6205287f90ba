// Start time of a simulated op, read from the step's timeline — the
// simulator reports end times only (StepSimResult::op_end).
#pragma once

#include "src/pipeline/ops.h"
#include "src/pipeline/simulator.h"

namespace pf {

// Start of `op` in res.timeline: the interval on the op's device with the
// op's kind, stage and micro. Throws pf::Error when the op did not run.
double op_start(const ScheduleSpec& spec, const StepSimResult& res,
                const PipeOp& op);

}  // namespace pf
