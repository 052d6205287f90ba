#include "src/comm/transport_channel.h"

#include <utility>

#include "src/comm/tensor_wire.h"
#include "src/common/check.h"
#include "src/common/clock.h"
#include "src/common/strings.h"

namespace pf {

TransportChannel::TransportChannel(std::string name, ShmRing ring,
                                   double send_timeout_seconds)
    : name_(std::move(name)),
      ring_(std::move(ring)),
      send_timeout_(send_timeout_seconds) {}

void TransportChannel::send(int micro, Matrix payload) {
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    PF_CHECK(sent_.insert(micro).second)
        << name_ << ": duplicate send for micro " << micro;
    order_.push_back(micro);
  }
  unsigned char* slot = ring_.acquire_slot(send_timeout_);
  const std::size_t len =
      serialize_tensor(micro, payload, slot, ring_.slot_bytes());
  ring_.publish(len);
}

void TransportChannel::drain_available() const {
  std::size_t len = 0;
  while (const unsigned char* p = ring_.try_peek(&len)) {
    WireMessage msg = deserialize_tensor(p, len);
    ring_.pop();
    std::lock_guard<std::mutex> lock(box_mu_);
    PF_CHECK(box_.emplace(msg.micro, std::move(msg.payload)).second)
        << name_ << ": duplicate delivery for micro " << msg.micro;
  }
}

Matrix TransportChannel::take(int micro) {
  drain_available();
  std::lock_guard<std::mutex> lock(box_mu_);
  auto it = box_.find(micro);
  PF_CHECK(it != box_.end())
      << name_ << ": take(" << micro
      << ") before the producer sent it (missing task dependency?)";
  Matrix out = std::move(it->second);
  box_.erase(it);
  return out;
}

Matrix TransportChannel::recv(int micro, double timeout_seconds) {
  const double t0 = now_seconds();
  const double deadline = t0 + timeout_seconds;
  bool waited = false;
  for (;;) {
    drain_available();
    {
      std::lock_guard<std::mutex> lock(box_mu_);
      auto it = box_.find(micro);
      if (it != box_.end()) {
        Matrix out = std::move(it->second);
        box_.erase(it);
        if (waited) waits_.push_back(now_seconds() - t0);
        return out;
      }
    }
    const double left = deadline - now_seconds();
    if (left <= 0) {
      std::string pending_keys;
      {
        std::lock_guard<std::mutex> lock(box_mu_);
        for (const auto& [k, v] : box_)
          pending_keys +=
              (pending_keys.empty() ? "" : ", ") + std::to_string(k);
      }
      PF_CHECK(false) << name_ << ": recv(" << micro << ") timed out after "
                      << timeout_seconds << "s; pending micros: ["
                      << pending_keys << "]";
    }
    waited = true;
    // Block on the wire for the NEXT message (whatever its micro), then
    // loop: the reorder box absorbs out-of-order arrivals. A ring-level
    // timeout is swallowed — the deadline check above rethrows it as the
    // channel-level diagnostic naming the micro and the pending keys.
    try {
      std::size_t len = 0;
      (void)ring_.peek(&len, left);
    } catch (const Error&) {
    }
  }
}

bool TransportChannel::has(int micro) const {
  drain_available();
  std::lock_guard<std::mutex> lock(box_mu_);
  return box_.find(micro) != box_.end();
}

std::size_t TransportChannel::pending() const {
  std::lock_guard<std::mutex> lock(box_mu_);
  return box_.size() + ring_.size();
}

std::vector<int> TransportChannel::send_order() const {
  std::lock_guard<std::mutex> lock(send_mu_);
  return order_;
}

void TransportChannel::clear() {
  // Drain whatever is still on the wire, then drop the endpoint state.
  std::size_t len = 0;
  while (ring_.try_peek(&len) != nullptr) ring_.pop();
  std::lock_guard<std::mutex> lock_s(send_mu_);
  std::lock_guard<std::mutex> lock_b(box_mu_);
  order_.clear();
  sent_.clear();
  box_.clear();
  waits_.clear();
}

std::vector<double> TransportChannel::recv_wait_seconds() const {
  std::lock_guard<std::mutex> lock(box_mu_);
  return waits_;
}

std::string resolve_transport(const std::string& requested) {
  std::string t = requested;
  if (t.empty()) t = env_str("PF_TRANSPORT", "inproc");
  PF_CHECK(t == "inproc" || t == "shm")
      << "unknown transport '" << t << "' (valid: inproc, shm)";
  return t;
}

}  // namespace pf
