// Causal stamps piggybacked on messages.
//
// A stamp is a set of matrix-clock entries (row, col, value).  The
// classical algorithm ships the whole s*s matrix; the Appendix-A
// "Updates" optimization ships only the entries modified since the last
// message sent to the same destination.  Both cases are represented by
// the same Stamp type so the delivery logic is codec-independent, and
// EncodedSize() reports the exact wire cost the paper's evaluation is
// about.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/status.h"

namespace cmom::clocks {

enum class StampMode : std::uint8_t {
  kFullMatrix = 0,  // classical algorithm: O(s^2) bytes per message
  kUpdates = 1,     // Appendix-A deltas: O(changes) bytes per message
};

// A receiver's verdict on an incoming stamp.
enum class CheckResult : std::uint8_t {
  kDeliver,    // all causal predecessors delivered; deliver now
  kHold,       // some predecessor missing; park in the hold-back queue
  kDuplicate,  // already delivered (retransmission); drop
};

struct StampEntry {
  DomainServerId row;   // sender of the counted messages
  DomainServerId col;   // receiver of the counted messages
  std::uint64_t value;  // number of such messages known

  friend bool operator==(const StampEntry&, const StampEntry&) = default;
};

struct Stamp {
  std::vector<StampEntry> entries;

  friend bool operator==(const Stamp&, const Stamp&) = default;

  // Looks up entry (row, col); returns nullptr when absent.
  [[nodiscard]] const StampEntry* Find(DomainServerId row,
                                       DomainServerId col) const;

  void Encode(ByteWriter& out) const;
  [[nodiscard]] static Result<Stamp> Decode(ByteReader& in);

  // Exact number of bytes Encode() would produce.
  [[nodiscard]] std::size_t EncodedSize() const;
};

std::ostream& operator<<(std::ostream& os, const Stamp& stamp);

}  // namespace cmom::clocks
