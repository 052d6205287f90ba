// The benchmark's own C++ tests: the open-loop generator's due-time
// schedule. Exit 0 = every check passed.
//
//   .bench_build/pfbench/pfbench_selftest
#include <cmath>
#include <cstdio>
#include <vector>

#include "pfbench/open_loop.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void test_due_times_are_evenly_spaced_from_t0() {
  const auto due = pfbench::due_times(100.0, 500.0, 1000);
  expect(due.size() == 1000, "one due time per request");
  expect(due.front() == 100.0, "first request is due at t0");
  for (std::size_t i = 1; i < due.size(); ++i)
    expect(std::fabs(due[i] - due[i - 1] - 0.002) < 1e-9,
           "requests are 1/rate apart");
  // Computed from t0 each time, not accumulated: no drift over a long run.
  expect(std::fabs(due.back() - (100.0 + 999.0 / 500.0)) < 1e-12,
         "the last due time does not drift");
  expect(pfbench::due_times(5.0, 10.0, 0).empty(), "zero requests");
}

void test_generator_stamps_due_times_and_closes() {
  pf::RequestQueue q;
  std::vector<pf::InferRequest> rs(50);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    rs[i].id = i;
    rs[i].ids = {1};
  }
  const double t0 = pf::now_seconds() + 0.002;
  pfbench::OpenLoopGenerator gen(q, rs, t0, 2000.0);
  std::vector<pf::InferRequest> got;
  while (true) {
    auto batch = q.wait_pop(8, 1, 10.0);
    if (batch.empty()) break;
    for (auto& r : batch) got.push_back(std::move(r));
  }
  gen.join();
  expect(gen.error().empty(), "generator ran without error");
  expect(q.closed(), "generator closes the queue");
  expect(got.size() == rs.size(), "every request pushed once");
  const auto& due = gen.due();
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect(got[i].id == i, "requests arrive in due order");
    expect(got[i].enqueue_seconds == due[i],
           "enqueue time is the due time, not the push time");
  }
  expect(gen.lateness_seconds().size() == rs.size(), "one lateness per push");
  for (const double l : gen.lateness_seconds())
    expect(l >= 0.0, "never pushed before its due time");
}

}  // namespace

int main() {
  test_due_times_are_evenly_spaced_from_t0();
  test_generator_stamps_due_times_and_closes();
  if (failures == 0) std::printf("pfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
