// Dependency-driven task executor over a ThreadPool — the execution engine
// beneath the pipeline runtime (src/train/pipeline_runtime.h).
//
// Tasks form a DAG (dependencies by task id) and are grouped into *lanes*;
// a lane runs at most one task at a time. The runtime maps one pipeline
// device to one lane, so lane-serial execution is exactly the "a device
// executes one kernel at a time" property the simulator models. Tasks may
// additionally name a *resource*: at most one task holding a given resource
// runs at any moment, across all lanes. The runtime uses resources for
// shared model stages (Chimera maps one model stage onto two devices);
// because resources are acquired by the scheduler before a task starts —
// never blocked on mid-task — they cannot deadlock.
//
// Dispatch rule: whenever a thread is free, the executor starts, across
// every idle lane, the READY (all dependencies done) task with the smallest
// (priority, id) whose resource is free — the rule perfmodel's
// predict_step replays (perfmodel/calibration.h). The pipeline runtime
// gives pipeline ops low priorities (their event-order position) and K-FAC
// work high priorities, which realizes PipeFisher's bubble rule:
// curvature/inversion work never takes a thread while an idle lane has a
// runnable pipeline op, so it runs in the realized idle gaps. Within the
// K-FAC tier the plan interleaves the stages' sequences (fair share,
// pipeline/step_plan.h), so the pick spreads the threads over every lane's
// bubble work.
//
// Determinism: the executor makes no ordering guarantees beyond the
// dependency edges — any value the computation produces must be pinned by
// deps, not by timing. (The pipeline runtime pins every floating-point
// accumulation order this way; see pipeline_runtime.h.)
//
// Dynamic graphs: tasks may also be add()ed *while run() is executing*, but
// only from inside a task body (the serving engine grows its admission →
// forward chains this way; see src/serve/serving_engine.h). A dynamic task
// may depend on any earlier id — already-completed dependencies count as
// satisfied. run() returns when the graph drains, i.e. when every task is
// done and the last ones added no more; a dynamic task added after a task
// error is registered but abandoned like every other unstarted task.
//
// run() executes the whole graph, blocks until completion, and rethrows the
// first task exception (remaining tasks are abandoned, in-flight tasks are
// drained first). Per-task wall-clock records (seconds since run() started)
// are kept so callers can emit an executed trace::Timeline.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"

namespace pf {

class TaskExecutor {
 public:
  // `n_lanes` fixed up front; lanes are ids [0, n_lanes).
  TaskExecutor(ThreadPool& pool, std::size_t n_lanes);

  // Registers a task. `deps` are ids returned by earlier add() calls.
  // `resource` >= 0 names a mutual-exclusion token (-1: none). Returns the
  // task id.
  //
  // Legal either before run() (static graph) or, while run() executes,
  // from inside a task body (dynamic graph). A dynamic task's dependencies
  // that already completed count as satisfied; its resource must not
  // exceed the maximum named before run() (tokens are sized at run start —
  // the serving engine uses none). Calling from a thread that is not
  // currently executing a task of this graph is undefined.
  std::size_t add(std::function<void()> fn, std::size_t lane, long priority,
                  std::vector<std::size_t> deps = {}, int resource = -1);

  std::size_t n_lanes() const { return n_lanes_; }

  // Executes the graph. The calling thread participates as a worker, so a
  // zero-worker pool degenerates to a deterministic serial run in priority
  // order. Throws pf::Error on dependency cycles detected as a stall.
  void run();

  struct Record {
    double start = 0.0;  // seconds since run() began
    double end = 0.0;
    bool executed = false;
  };
  // Valid after run(); indexed by task id.
  const std::vector<Record>& records() const { return records_; }

 private:
  struct Node {
    std::function<void()> fn;
    std::size_t lane = 0;
    long priority = 0;
    int resource = -1;
    std::vector<std::size_t> dependents;
    std::size_t pending_deps = 0;
  };
  struct State;  // shared with pump closures (see task_executor.cpp)

  ThreadPool& pool_;
  std::size_t n_lanes_;
  int max_resource_ = -1;
  // deque: dynamic add() must not invalidate the `Node&` a runner holds
  // across its (unlocked) fn() call.
  std::deque<Node> nodes_;
  std::vector<Record> records_;
  bool ran_ = false;
  // Non-null exactly while run() is executing; routes add() to the locked
  // dynamic path.
  std::shared_ptr<State> live_;
};

}  // namespace pf
