#include "src/serve/request_queue.h"

#include <algorithm>
#include <chrono>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace pf {

void RequestQueue::push(InferRequest r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PF_CHECK(!closed_) << "push() on a closed request queue (request "
                       << r.id << ")";
    if (r.enqueue_seconds < 0.0) r.enqueue_seconds = now_seconds();
    q_.push_back(std::move(r));
  }
  cv_.notify_all();
}

void RequestQueue::push_all(std::vector<InferRequest> rs) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PF_CHECK(!closed_) << "push_all() on a closed request queue";
    for (auto& r : rs) {
      if (r.enqueue_seconds < 0.0) r.enqueue_seconds = now_seconds();
      q_.push_back(std::move(r));
    }
  }
  cv_.notify_all();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

bool RequestQueue::drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_ && q_.empty();
}

std::vector<InferRequest> RequestQueue::wait_pop(std::size_t max_n,
                                                 std::size_t min_n,
                                                 double timeout_seconds) {
  PF_CHECK(max_n >= 1 && min_n >= 1 && min_n <= max_n)
      << "wait_pop needs 1 <= min_n <= max_n, got min_n=" << min_n
      << " max_n=" << max_n;
  // Non-reentrant from parallel_for chunks: a chunk body parking this
  // thread on live traffic would stall every sibling chunk of the loop
  // (and, before the chunk-claiming rewrite of ThreadPool::parallel_for,
  // a forward's helper could end up EXECUTING the blocking admission pump
  // — the old stage_threads = 1 serving pin). Admission must run as its
  // own executor task, never inside a data-parallel loop.
  PF_CHECK(!ThreadPool::in_parallel_for())
      << "RequestQueue::wait_pop called from inside a parallel_for chunk — "
         "blocking admission must be a task of its own, not nested in a "
         "data-parallel loop";
  std::unique_lock<std::mutex> lk(mu_);
  const bool ok = cv_.wait_for(
      lk, std::chrono::duration<double>(timeout_seconds),
      [&] { return closed_ || q_.size() >= min_n; });
  PF_CHECK(ok) << "request queue wait_pop timed out after " << timeout_seconds
               << "s with " << q_.size() << "/" << min_n
               << " requests queued and no close() — producer stuck?";
  std::vector<InferRequest> out;
  const std::size_t n = std::min(max_n, q_.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  return out;
}

}  // namespace pf
