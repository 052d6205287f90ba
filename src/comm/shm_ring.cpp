#include "src/comm/shm_ring.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <new>
#include <thread>
#include <utility>

#include <sys/mman.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#endif

#include "src/common/check.h"

namespace pf {

// ---------------------------------------------------------------------------
// SharedRegion

SharedRegion::SharedRegion(std::size_t bytes) : bytes_(bytes) {
  PF_CHECK(bytes > 0) << "SharedRegion: zero-byte mapping";
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  PF_CHECK(p != MAP_FAILED)
      << "SharedRegion: mmap of " << bytes << " bytes failed";
  data_ = p;
}

SharedRegion::~SharedRegion() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
}

SharedRegion::SharedRegion(SharedRegion&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)), bytes_(std::exchange(o.bytes_, 0)) {}

// ---------------------------------------------------------------------------
// Futex-parked waiting

namespace {

constexpr int kSpinIters = 4096;
// A lost wakeup (benign race between the waiter-count check and the park)
// costs at most one slice, never a hang.
constexpr double kParkSliceSeconds = 0.002;

double now_monotonic() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

#ifdef __linux__
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

void park_on(std::atomic<std::uint32_t>* word, std::uint32_t expected,
             double max_seconds) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(max_seconds);
  ts.tv_nsec = static_cast<long>((max_seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAIT,
            expected, &ts, nullptr, 0);
}

void wake_all(std::atomic<std::uint32_t>* word) {
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
            INT32_MAX, nullptr, nullptr, 0);
}
#else
void park_on(std::atomic<std::uint32_t>* word, std::uint32_t expected,
             double max_seconds) {
  (void)word;
  (void)expected;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      std::min(max_seconds, 100e-6)));
}

void wake_all(std::atomic<std::uint32_t>*) {}
#endif

}  // namespace

// ---------------------------------------------------------------------------
// Ring layout

struct ShmRing::Header {
  std::uint64_t slot_count = 0;
  std::uint64_t slot_bytes = 0;
  std::uint64_t slot_stride = 0;
  // Published message count (producer-owned) and consumed count
  // (consumer-owned), on their own cache lines so the two sides never
  // false-share.
  alignas(64) std::atomic<std::uint64_t> tail{0};
  alignas(64) std::atomic<std::uint64_t> head{0};
  // Wake words: bumped by the owning side after every publish/consume;
  // waiter counts gate the wake syscall to the contended case.
  alignas(64) std::atomic<std::uint32_t> tail_seq{0};
  std::atomic<std::uint32_t> tail_waiters{0};
  alignas(64) std::atomic<std::uint32_t> head_seq{0};
  std::atomic<std::uint32_t> head_waiters{0};
};

struct ShmRing::Slot {
  std::uint64_t len = 0;
  // Payload bytes follow at +sizeof(std::uint64_t); stride keeps slots
  // cache-line aligned.
};

namespace {
std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}
}  // namespace

std::size_t ShmRing::slots_offset() { return align_up(sizeof(Header), 64); }

std::size_t ShmRing::required_bytes(std::size_t slot_count,
                                    std::size_t slot_bytes) {
  PF_CHECK(slot_count >= 1) << "ShmRing: slot_count must be >= 1";
  const std::size_t stride = align_up(sizeof(std::uint64_t) + slot_bytes, 64);
  return slots_offset() + slot_count * stride;
}

ShmRing ShmRing::create(void* mem, std::size_t slot_count,
                        std::size_t slot_bytes, std::string name) {
  PF_CHECK(mem != nullptr);
  auto* h = new (mem) Header();
  h->slot_count = slot_count;
  h->slot_bytes = slot_bytes;
  h->slot_stride = align_up(sizeof(std::uint64_t) + slot_bytes, 64);
  ShmRing r;
  r.h_ = h;
  r.name_ = std::move(name);
  return r;
}

ShmRing::Slot* ShmRing::slot(std::uint64_t index) const {
  auto* base = reinterpret_cast<unsigned char*>(h_);
  return reinterpret_cast<Slot*>(base + slots_offset() +
                                 (index % h_->slot_count) * h_->slot_stride);
}

std::size_t ShmRing::slot_bytes() const { return h_->slot_bytes; }

std::size_t ShmRing::size() const {
  return static_cast<std::size_t>(
      h_->tail.load(std::memory_order_acquire) -
      h_->head.load(std::memory_order_acquire));
}

unsigned char* ShmRing::acquire_slot(double timeout_seconds) {
  PF_CHECK(h_ != nullptr) << "ShmRing: unattached view";
  const std::uint64_t t = h_->tail.load(std::memory_order_relaxed);
  auto has_room = [&] {
    return t - h_->head.load(std::memory_order_seq_cst) < h_->slot_count;
  };
  if (!has_room()) {
    for (int i = 0; i < kSpinIters && !has_room(); ++i)
      std::this_thread::yield();
    const double deadline = now_monotonic() + timeout_seconds;
    while (!has_room()) {
      h_->head_waiters.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t seq = h_->head_seq.load(std::memory_order_seq_cst);
      if (!has_room()) {
        const double left = deadline - now_monotonic();
        if (left <= 0) {
          h_->head_waiters.fetch_sub(1, std::memory_order_seq_cst);
          PF_CHECK(false)
              << name_ << ": producer timed out after " << timeout_seconds
              << "s waiting for a free slot (all " << h_->slot_count
              << " full — consumer stalled or dead)";
        }
        park_on(&h_->head_seq, seq, std::min(left, kParkSliceSeconds));
      }
      h_->head_waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  return reinterpret_cast<unsigned char*>(slot(t)) + sizeof(std::uint64_t);
}

void ShmRing::publish(std::size_t len) {
  const std::uint64_t t = h_->tail.load(std::memory_order_relaxed);
  PF_CHECK(len <= h_->slot_bytes)
      << name_ << ": publish of " << len << " bytes into " << h_->slot_bytes
      << "-byte slots";
  slot(t)->len = len;
  // The release store is the happens-before edge carrying the slot bytes
  // (and len) to the consumer's acquire load of tail.
  h_->tail.store(t + 1, std::memory_order_release);
  h_->tail_seq.fetch_add(1, std::memory_order_seq_cst);
  if (h_->tail_waiters.load(std::memory_order_seq_cst) > 0)
    wake_all(&h_->tail_seq);
}

const unsigned char* ShmRing::try_peek(std::size_t* len) {
  PF_CHECK(h_ != nullptr) << "ShmRing: unattached view";
  const std::uint64_t hd = h_->head.load(std::memory_order_relaxed);
  if (h_->tail.load(std::memory_order_acquire) == hd) return nullptr;
  Slot* sl = slot(hd);
  *len = sl->len;
  return reinterpret_cast<const unsigned char*>(sl) + sizeof(std::uint64_t);
}

const unsigned char* ShmRing::peek(std::size_t* len, double timeout_seconds) {
  PF_CHECK(h_ != nullptr) << "ShmRing: unattached view";
  const std::uint64_t hd = h_->head.load(std::memory_order_relaxed);
  auto ready = [&] {
    return h_->tail.load(std::memory_order_seq_cst) != hd;
  };
  if (!ready()) {
    for (int i = 0; i < kSpinIters && !ready(); ++i) std::this_thread::yield();
    const double deadline = now_monotonic() + timeout_seconds;
    while (!ready()) {
      h_->tail_waiters.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t seq = h_->tail_seq.load(std::memory_order_seq_cst);
      if (!ready()) {
        const double left = deadline - now_monotonic();
        if (left <= 0) {
          h_->tail_waiters.fetch_sub(1, std::memory_order_seq_cst);
          PF_CHECK(false)
              << name_ << ": consumer timed out after " << timeout_seconds
              << "s waiting for a message (producer stalled or dead)";
        }
        park_on(&h_->tail_seq, seq, std::min(left, kParkSliceSeconds));
      }
      h_->tail_waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
  }
  Slot* sl = slot(hd);
  *len = sl->len;
  return reinterpret_cast<const unsigned char*>(sl) + sizeof(std::uint64_t);
}

void ShmRing::pop() {
  const std::uint64_t hd = h_->head.load(std::memory_order_relaxed);
  PF_CHECK(h_->tail.load(std::memory_order_acquire) != hd)
      << name_ << ": pop on an empty ring";
  h_->head.store(hd + 1, std::memory_order_release);
  h_->head_seq.fetch_add(1, std::memory_order_seq_cst);
  if (h_->head_waiters.load(std::memory_order_seq_cst) > 0)
    wake_all(&h_->head_seq);
}

}  // namespace pf
