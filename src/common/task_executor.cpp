#include "src/common/task_executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>

#include "src/common/check.h"

namespace pf {

namespace {
using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}
}  // namespace

// Shared between run() and the pump closures submitted to the pool. Pumps
// hold a shared_ptr so a stale closure drained from the pool queue after
// run() returned (possible on a zero-worker pool, where only a later
// parallel_for drains submissions) finds `finished` and exits without
// touching freed memory.
struct TaskExecutor::State {
  explicit State(std::size_t n_lanes, int max_resource)
      : lane_ready(n_lanes),
        lane_busy(n_lanes, false),
        resource_busy(static_cast<std::size_t>(max_resource + 1), false) {}

  std::mutex mu;
  std::condition_variable cv;
  // Per lane, ready tasks not yet started, ordered by (priority, id).
  using Entry = std::pair<long, std::size_t>;
  std::vector<std::set<Entry>> lane_ready;
  std::vector<bool> lane_busy;
  std::vector<bool> resource_busy;
  std::size_t done = 0;
  std::size_t running = 0;
  std::size_t pumps_in_flight = 0;
  bool finished = false;
  std::exception_ptr error;
  Clock::time_point epoch;
  // The pool-side worker closure, stored here so completion paths can top
  // up pumps for lanes they just made startable (set by run() before any
  // task is seeded).
  std::function<void()> pump;
};

TaskExecutor::TaskExecutor(ThreadPool& pool, std::size_t n_lanes)
    : pool_(pool), n_lanes_(n_lanes) {
  PF_CHECK(n_lanes >= 1);
}

std::size_t TaskExecutor::add(std::function<void()> fn, std::size_t lane,
                              long priority, std::vector<std::size_t> deps,
                              int resource) {
  PF_CHECK(lane < n_lanes_) << "lane " << lane << " out of " << n_lanes_;
  PF_CHECK(fn != nullptr);
  if (!ran_) {
    const std::size_t id = nodes_.size();
    Node n;
    n.fn = std::move(fn);
    n.lane = lane;
    n.priority = priority;
    n.resource = resource;
    max_resource_ = std::max(max_resource_, resource);
    n.pending_deps = deps.size();
    nodes_.push_back(std::move(n));
    for (const std::size_t d : deps) {
      PF_CHECK(d < id) << "dependency " << d << " of task " << id
                       << " not yet added";
      nodes_[d].dependents.push_back(id);
    }
    return id;
  }

  // Dynamic path: the graph is executing; we are inside a task body (the
  // contract in the header), so `live_` is stable for the duration of this
  // call. Resource tokens were sized when run() started, so a dynamic task
  // cannot introduce a new one.
  std::shared_ptr<State> st = live_;
  PF_CHECK(st != nullptr) << "add() after run() completed";
  PF_CHECK(resource <= max_resource_)
      << "dynamic task names resource " << resource
      << " beyond the run-start maximum " << max_resource_
      << " (resource tokens are sized when run() starts)";

  std::lock_guard<std::mutex> lock(st->mu);
  const std::size_t id = nodes_.size();
  Node n;
  n.fn = std::move(fn);
  n.lane = lane;
  n.priority = priority;
  n.resource = resource;
  n.pending_deps = 0;
  for (const std::size_t d : deps) {
    PF_CHECK(d < id) << "dependency " << d << " of task " << id
                     << " not yet added";
    // A completed dependency counts as satisfied; one still pending or
    // running fires through its dependents list on completion.
    if (!records_[d].executed) ++n.pending_deps;
  }
  const std::size_t pending = n.pending_deps;
  nodes_.push_back(std::move(n));
  records_.push_back(Record{});
  for (const std::size_t d : deps)
    if (!records_[d].executed) nodes_[d].dependents.push_back(id);
  // After an error the graph is finishing and every unstarted task is
  // abandoned — the new one joins them (uniform semantics, no secondary
  // throw out of the adding task's body).
  if (!st->finished && pending == 0) {
    st->lane_ready[lane].emplace(priority, id);
    // The adding thread is occupied by its own task, so cover every
    // startable lane: wake the main thread and top up pool pumps
    // (over-provisioning is harmless — stale pumps exit immediately).
    if (st->pump && pool_.n_threads() > 0) {
      std::size_t startable = 0;
      for (std::size_t l = 0; l < n_lanes_; ++l)
        if (!st->lane_busy[l] && !st->lane_ready[l].empty()) ++startable;
      while (startable > st->pumps_in_flight &&
             st->pumps_in_flight < n_lanes_) {
        ++st->pumps_in_flight;
        pool_.submit(st->pump);
      }
    }
    st->cv.notify_all();
  }
  return id;
}

void TaskExecutor::run() {
  PF_CHECK(!ran_) << "run() is single-shot";
  ran_ = true;
  records_.assign(nodes_.size(), Record{});
  if (nodes_.empty()) return;

  auto st = std::make_shared<State>(n_lanes_, max_resource_);
  st->epoch = Clock::now();
  // Opens the dynamic add() window. Task bodies start only after the seed
  // block below acquires/releases the state mutex, so they observe this
  // write; it is cleared after the drain, when no body can be running.
  live_ = st;

  // Picks the startable task with the smallest (priority, id) across every
  // idle lane — the rule perfmodel's predict_step replays — so bubble work
  // never takes a thread while an idle lane has a runnable pipeline op. A
  // task whose resource is held is skipped, not waited on: a lower-priority
  // ready task of the same lane may still run (work conservation — a
  // blocked op must not idle the device when bubble work is ready). Caller
  // holds the state mutex.
  auto pick_startable = [this, &st](std::size_t* out_task) -> bool {
    std::size_t best_lane = n_lanes_;
    std::set<State::Entry>::iterator best;
    for (std::size_t lane = 0; lane < n_lanes_; ++lane) {
      if (st->lane_busy[lane]) continue;
      auto& ready = st->lane_ready[lane];
      const auto it =
          std::find_if(ready.begin(), ready.end(), [&](const State::Entry& e) {
            const int res = nodes_[e.second].resource;
            return res < 0 || !st->resource_busy[static_cast<std::size_t>(res)];
          });
      if (it == ready.end()) continue;
      if (best_lane == n_lanes_ || *it < *best) {
        best_lane = lane;
        best = it;
      }
    }
    if (best_lane == n_lanes_) return false;
    *out_task = best->second;
    st->lane_ready[best_lane].erase(best);
    return true;
  };

  // Executes one startable task (caller holds the lock via `lk`); returns
  // false when nothing could start.
  auto try_run_one = [&](std::unique_lock<std::mutex>& lk) -> bool {
    std::size_t id = 0;
    if (!pick_startable(&id)) return false;
    Node& node = nodes_[id];
    st->lane_busy[node.lane] = true;
    if (node.resource >= 0)
      st->resource_busy[static_cast<std::size_t>(node.resource)] = true;
    ++st->running;
    lk.unlock();

    Record rec;
    rec.start = seconds_since(st->epoch);
    std::exception_ptr err;
    try {
      node.fn();
    } catch (...) {
      err = std::current_exception();
    }
    rec.end = seconds_since(st->epoch);
    rec.executed = true;

    lk.lock();
    records_[id] = rec;
    st->lane_busy[node.lane] = false;
    if (node.resource >= 0)
      st->resource_busy[static_cast<std::size_t>(node.resource)] = false;
    --st->running;
    ++st->done;
    if (err) {
      if (!st->error) st->error = err;
      st->finished = true;  // stop dispatching; abandon the rest
    } else {
      for (const std::size_t dep : node.dependents) {
        Node& d = nodes_[dep];
        PF_ASSERT(d.pending_deps > 0);
        if (--d.pending_deps == 0)
          st->lane_ready[d.lane].emplace(d.priority, dep);
      }
      if (st->done == nodes_.size()) st->finished = true;
      // Top up pool pumps for lanes this completion made startable beyond
      // the one the current thread's loop takes next — otherwise a newly
      // runnable lane could idle until the main thread finishes its own
      // task and re-seeds.
      if (!st->finished && st->pump && pool_.n_threads() > 0) {
        std::size_t startable = 0;
        for (std::size_t lane = 0; lane < n_lanes_; ++lane)
          if (!st->lane_busy[lane] && !st->lane_ready[lane].empty())
            ++startable;
        while (startable > 1 + st->pumps_in_flight &&
               st->pumps_in_flight < n_lanes_) {
          ++st->pumps_in_flight;
          pool_.submit(st->pump);
        }
      }
    }
    st->cv.notify_all();
    return true;
  };

  // Pool-side worker: runs startable tasks until none remain for it, then
  // returns (never blocks a pool thread). Completion paths — here, in the
  // main loop, and inside try_run_one — top up pumps whenever more lanes
  // become startable than there are threads working them. The closure
  // holds the State shared_ptr, so a stale pump drained after run()
  // returned finds `finished` and exits without touching run()'s frame.
  st->pump = [st, try_run_one]() {
    std::unique_lock<std::mutex> lk(st->mu);
    --st->pumps_in_flight;  // this pump is now live, not queued
    while (!st->finished && try_run_one(lk)) {
    }
  };

  // Seed: tasks with no dependencies.
  {
    std::lock_guard<std::mutex> lock(st->mu);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      if (nodes_[i].pending_deps == 0)
        st->lane_ready[nodes_[i].lane].emplace(nodes_[i].priority, i);
  }

  // Main loop: participate as a worker; keep enough pumps in flight to
  // cover every idle lane with ready work; wait when nothing is startable.
  std::unique_lock<std::mutex> lk(st->mu);
  for (;;) {
    if (st->finished) break;
    // Count startable lanes beyond the one this thread takes and top up
    // pool pumps for them (over-provisioning is harmless: stale pumps
    // exit immediately).
    std::size_t startable = 0;
    for (std::size_t lane = 0; lane < n_lanes_; ++lane)
      if (!st->lane_busy[lane] && !st->lane_ready[lane].empty()) ++startable;
    while (startable > 1 + st->pumps_in_flight &&
           st->pumps_in_flight < n_lanes_ && pool_.n_threads() > 0) {
      ++st->pumps_in_flight;
      pool_.submit(st->pump);
    }
    if (!try_run_one(lk)) {
      PF_CHECK(st->running > 0 || st->done == nodes_.size())
          << "task graph stalled with " << nodes_.size() - st->done
          << " tasks pending (dependency cycle?)";
      st->cv.wait(lk);
    }
  }
  // Drain in-flight tasks before returning: their bodies may reference
  // caller-owned state.
  st->cv.wait(lk, [&] { return st->running == 0; });
  // Break the State->pump->State shared_ptr cycle (queued stale pump
  // copies hold their own State refs and self-expire on `finished`).
  st->pump = nullptr;
  live_ = nullptr;  // dynamic add() window closed
  const std::exception_ptr err = st->error;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace pf
