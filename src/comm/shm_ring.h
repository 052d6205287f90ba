// Lock-free SPSC ring over shared memory — the wire beneath
// comm/transport_channel.h.
//
// One ShmRing carries one direction of one stage boundary: a fixed number
// of fixed-size slots in a memory region both endpoints can see. The
// region is caller-provided — SharedRegion below maps it
// MAP_SHARED|MAP_ANONYMOUS, so a parent that creates rings before fork()
// shares them with every child at the same address (train/multiproc.h);
// in-process both endpoints simply hold the same pointers.
//
// Single-producer / single-consumer by contract: exactly one thread (or
// process) calls the produce side, exactly one the consume side. The
// pipeline runtime satisfies this per boundary+direction for every
// single-pipeline schedule (the producer stage's lane is the only sender);
// Chimera's two pipelines put two producer devices on one boundary, which
// is why the shm transport PF_CHECKs n_pipelines == 1.
//
// Synchronization is two cache-line-padded monotonic cursors:
//   tail — messages published (producer writes, release)
//   head — messages consumed (consumer writes, release)
// The producer writes slot bytes, then stores tail+1 with release; the
// consumer loads tail with acquire before reading the slot — that edge is
// the only ordering the data transfer needs, so the hot path is two atomic
// ops and a memcpy, no locks anywhere. Waiting (ring full / ring empty)
// spins briefly, then parks on a futex keyed by a 32-bit sequence counter
// the peer bumps after every publish/consume (nanosleep fallback off
// Linux). Waits take a timeout and throw pf::Error when it expires — a
// protocol bug (consumer scheduled before its producer) surfaces as an
// error naming the ring, not a silent hang.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pf {

// A MAP_SHARED|MAP_ANONYMOUS mapping: plain memory in-process, inherited
// (same address, same physical pages) by every child forked after
// construction. Movable, munmap'd once by the final owner.
class SharedRegion {
 public:
  explicit SharedRegion(std::size_t bytes);
  ~SharedRegion();
  SharedRegion(SharedRegion&& o) noexcept;
  SharedRegion(const SharedRegion&) = delete;
  SharedRegion& operator=(const SharedRegion&) = delete;

  void* data() const { return data_; }
  std::size_t bytes() const { return bytes_; }

 private:
  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

// Non-owning SPSC ring view over a shared region. Copyable — a copy is
// another handle onto the same ring (each process holds its own view).
class ShmRing {
 public:
  ShmRing() = default;

  // Region bytes needed for `slot_count` slots of `slot_bytes` payload.
  static std::size_t required_bytes(std::size_t slot_count,
                                    std::size_t slot_bytes);

  // Formats a ring in `mem` (>= required_bytes, zero-initialized — fresh
  // SharedRegions are) and returns a view. Called once, by the creating
  // process, before any other endpoint holds a copy of the view (threads
  // copy it; forked children inherit it).
  static ShmRing create(void* mem, std::size_t slot_count,
                        std::size_t slot_bytes, std::string name = "ring");

  std::size_t slot_bytes() const;
  // Messages published and not yet consumed. Racy by nature (either cursor
  // may move concurrently) but exact when the caller knows its side is
  // quiescent — how the runtime asserts rings drained at step exit.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  const std::string& name() const { return name_; }

  // --- Producer side ----------------------------------------------------
  // Waits for a free slot and returns its payload pointer (capacity
  // slot_bytes()); the caller serializes in place, then publish()es the
  // actual length. Throws pf::Error after timeout_seconds of ring-full.
  unsigned char* acquire_slot(double timeout_seconds);
  void publish(std::size_t len);

  // --- Consumer side ----------------------------------------------------
  // Waits for the oldest unconsumed message and returns its payload
  // pointer + length; pop() retires it. Throws pf::Error after
  // timeout_seconds of ring-empty. try_peek returns nullptr instead of
  // waiting.
  const unsigned char* peek(std::size_t* len, double timeout_seconds);
  const unsigned char* try_peek(std::size_t* len);
  void pop();

 private:
  struct Header;
  struct Slot;

  static std::size_t slots_offset();
  Slot* slot(std::uint64_t index) const;

  Header* h_ = nullptr;
  std::string name_;
};

}  // namespace pf
