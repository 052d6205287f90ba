// The wall clock the library shares: seconds on std::chrono::steady_clock.
// Serving timestamps (enqueue/admit/complete), the transport channel's recv
// deadlines, the autotuner's burst timing and the benches all read it, so
// any two readings compare.
#pragma once

namespace pf {

double now_seconds();

}  // namespace pf
