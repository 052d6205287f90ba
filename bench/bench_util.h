// Shared console helpers for the reproduction benches.
#pragma once

#include <sched.h>

#include <cstdio>
#include <string>
#include <thread>

#include "src/common/strings.h"

namespace pf::bench {

inline void heading(const std::string& title) {
  std::printf("\n%s\n%s\n", title.c_str(),
              std::string(title.size(), '=').c_str());
}

inline void subheading(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

// "measured X vs paper Y" line for EXPERIMENTS.md-style reporting.
inline void compare_line(const std::string& what, const std::string& ours,
                         const std::string& paper) {
  std::printf("  %-46s measured %-12s paper %s\n", what.c_str(), ours.c_str(),
              paper.c_str());
}

// The CPU budget a bench ran under, the opening of its JSON's
// cpu_budget_note: the host's hardware threads and how many of them this
// process's affinity mask lets it run on.
inline std::string cpu_budget() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  const int allowed =
      sched_getaffinity(0, sizeof mask, &mask) == 0 ? CPU_COUNT(&mask) : 0;
  return format("recorded with %u hardware threads, %d of them in the "
                "affinity mask",
                std::thread::hardware_concurrency(), allowed);
}

}  // namespace pf::bench
