// Open-loop request generator for the `serve` workload.
//
// Independent users send on a schedule whether or not the server keeps up:
// request i is due at t0 + i / rate. The generator thread sleeps until each
// due time, pre-sets the request's enqueue_seconds to the DUE time (not the
// push time), and pushes it — so the engine's per-request latency
// (complete - enqueue) includes any wait a stall imposes on later requests.
// How late each push ran behind its due time is recorded separately: a
// lagging generator offers less load than the workload states.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/request_queue.h"

namespace pfbench {

// Due times (pf::now_seconds() timebase) of `n` requests at `rate`/s.
inline std::vector<double> due_times(double t0, double rate, std::size_t n) {
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i)
    due[i] = t0 + static_cast<double>(i) / rate;
  return due;
}

// Pushes `requests` into `queue` at the due times of an open loop starting at
// t0, then closes the queue. Runs on its own thread; join() before reading
// lateness_seconds() (push time minus due time, one entry per request).
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(pf::RequestQueue& queue,
                    std::vector<pf::InferRequest> requests, double t0,
                    double rate)
      : queue_(queue),
        requests_(std::move(requests)),
        due_(due_times(t0, rate, requests_.size())),
        thread_([this] { run(); }) {}
  ~OpenLoopGenerator() { join(); }
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& due() const { return due_; }
  const std::vector<double>& lateness_seconds() const { return late_; }
  // Non-empty if the generator thread failed; valid after join().
  const std::string& error() const { return error_; }

 private:
  void run() {
    try {
      late_.reserve(requests_.size());
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        // Sleep in short slices so the wake-up lands close to the due time.
        double now = pf::now_seconds();
        while (now < due_[i]) {
          const double wait = std::min(due_[i] - now, 0.0005);
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          now = pf::now_seconds();
        }
        pf::InferRequest r = std::move(requests_[i]);
        r.enqueue_seconds = due_[i];
        late_.push_back(pf::now_seconds() - due_[i]);
        queue_.push(std::move(r));
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
    queue_.close();
  }

  pf::RequestQueue& queue_;
  std::vector<pf::InferRequest> requests_;
  std::vector<double> due_;
  std::vector<double> late_;
  std::string error_;
  std::thread thread_;  // last: starts once every member above exists
};

}  // namespace pfbench
