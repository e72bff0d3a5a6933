// Calibrated cost model for simulated runs.
//
// Section 6.1 decomposes the turn-around time of a message into a
// near-constant transfer term (serialization/deserialization, transfer
// time, agent saving) and a causal-ordering term (checking, updating
// and *saving* the matrix clock).  The model below reproduces that
// decomposition:
//
//   wire cost   = wire_latency + frame_bytes * per_wire_byte
//   processing  = per_hop_fixed                       (transfer term)
//               + clock_entries_touched * per_clock_entry
//               + persisted_bytes * per_disk_byte + disk_sync
//                                                 (causal-order term)
//
// The defaults are calibrated so that the flat (one global domain)
// remote-unicast ping-pong lands in the same range as the paper's
// Figure 7 (61..201 ms for 10..50 servers; the model gives 58..205).
// The domain runs of Figure 10 stay linear at 105..112 ms for 12..156
// servers, below the paper's 159..218 ms.  Absolute fidelity is not the
// goal -- the shape (quadratic vs. linear, and the crossover near 30
// servers in Figure 11) is what the model must and does preserve.
#pragma once

#include <cstdint>

#include "sim/simulator.h"

namespace cmom::net {

struct CostModel {
  // Link propagation delay per frame (100 Mbit LAN scale).
  sim::Duration wire_latency = 200 * sim::kMicrosecond;
  // Serialization + transmission cost per frame byte.
  sim::Duration per_wire_byte = 80;  // ns/byte ~ 100 Mbit/s
  // Fixed per-transaction handling: engine dispatch, (de)serialization
  // of the message body, agent state saving.  Calibrated to the paper's
  // JVM-era testbed, where the n-independent share of a remote unicast
  // round trip was ~55 ms across 4 transactions (Figure 7's intercept).
  sim::Duration per_hop_fixed = 12500 * sim::kMicrosecond;
  // Matrix-clock arithmetic per entry touched (check + merge).
  sim::Duration per_clock_entry = 150;  // ns/entry
  // Writing the persistent image of channel state (matrix clock etc.),
  // ~0.17 MB/s on the fsync path; fit to Figure 7's paper column.
  sim::Duration per_disk_byte = 6 * sim::kMicrosecond;
  // Fixed synchronous-commit latency per transaction.
  sim::Duration disk_sync = 30 * sim::kMicrosecond;

  [[nodiscard]] sim::Duration WireCost(std::size_t frame_bytes) const {
    return wire_latency + frame_bytes * per_wire_byte;
  }
  [[nodiscard]] sim::Duration ProcessingCost(std::size_t clock_entries,
                                             std::size_t persisted_bytes) const {
    return per_hop_fixed + clock_entries * per_clock_entry +
           persisted_bytes * per_disk_byte + disk_sync;
  }
};

// Fault-injection knobs for SimNetwork.  The Channel's ACK/retransmit
// protocol plus the clock-based duplicate detection must mask all of
// these; integration tests turn them up and assert causal delivery
// still holds.
struct FaultModel {
  double drop_probability = 0.0;       // frame silently lost
  double duplicate_probability = 0.0;  // frame delivered twice
  double jitter_probability = 0.0;     // frame delayed by extra jitter
  sim::Duration max_jitter = 50 * sim::kMillisecond;
  // When false (default) links are FIFO; when true, jittered frames may
  // overtake each other, exercising the hold-back queue.
  bool allow_reordering = false;
};

}  // namespace cmom::net
