// Pooled arena for frame buffers and decoded payloads.
//
// Every message the bus moves costs a handful of byte-vector
// allocations on the hot path: the serialized frame, the decoded
// payload, the re-encoded store entries.  This pool recycles Bytes
// buffers through per-thread freelists: Acquire/Release never take a
// lock, and a steady-state pipeline (a transport thread decodes, runs
// the engine step and re-encodes acks and frames; the consumed payload
// funds the next encode) runs with almost no heap allocations per
// frame.
//
// Lifetime rule: a pooled buffer is owned like any other Bytes value;
// Release hands it back for reuse, so the caller must be the last
// owner.  Frame buffers are released by the receiving decode, payloads
// once the reaction that consumed them returned (their durable copy is
// the qin/ record, not the buffer).
//
// Buffers migrate between threads through a global overflow shelf:
// when a thread's freelist caps out, a batch of buffers moves onto the
// shelf under one lock, and a thread whose freelist runs dry refills a
// batch from it.  That closes the producer/consumer split between
// threads -- a pure-producer thread (acquire-only, e.g. a SendMessage
// caller) recycles what the transport threads release instead of
// hitting the heap on every message, while the steady same-thread hot
// loops still never touch the lock.  Counters are global (per-thread
// atomics summed on read) so benchmarks can report heap allocations per
// message: heap allocs = acquires - pool_hits.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace cmom {

class BufferPool {
 public:
  struct Counters {
    std::uint64_t acquires = 0;   // buffers handed out
    std::uint64_t pool_hits = 0;  // ... of which reused a freed buffer
    std::uint64_t releases = 0;   // buffers handed back
    std::uint64_t discards = 0;   // ... of which were dropped (shelf and
                                  // list full, oversized, or pool disabled)
    std::uint64_t shelf_deposits = 0;  // buffers batch-moved to the shelf
    std::uint64_t shelf_refills = 0;   // buffers batch-taken from it

    [[nodiscard]] std::uint64_t heap_allocations() const {
      return acquires - pool_hits;
    }
  };

  // A cleared buffer with at least `capacity_hint` reserved, reusing a
  // freed one when the calling thread's freelist has any.
  [[nodiscard]] static Bytes Acquire(std::size_t capacity_hint);

  // Returns a buffer to the calling thread's freelist.  Safe for any
  // Bytes value, pooled or not.
  static void Release(Bytes&& buffer);

  // Cumulative counters over all threads (including exited ones).
  [[nodiscard]] static Counters Totals();

  // Disabling turns Acquire/Release into plain allocate/free (counters
  // still tick) -- the bench's arena-off baseline and the recovery
  // equivalence tests use this.
  static void SetEnabled(bool enabled);
  [[nodiscard]] static bool enabled();
};

// A pooled buffer of exactly `size` bytes, for an exact-size encoder
// to write through.  The finished frame travels through the transport
// and is released by the receiving decode.
[[nodiscard]] inline Bytes PooledBuffer(std::size_t size) {
  Bytes out = BufferPool::Acquire(size);
  out.resize(size);
  return out;
}

}  // namespace cmom
