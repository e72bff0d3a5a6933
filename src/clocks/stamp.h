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
  kMalformed,  // names a member outside the domain or lacks its own
               // send counter; drop unread and unacknowledged
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

  // Exact number of bytes Encode() produces, summed from the varint
  // sizes of the entries without encoding them.
  [[nodiscard]] std::size_t EncodedSize() const;
  // Writes the encoding at `p`, which must have EncodedSize() bytes of
  // room, and returns the byte after it.
  std::uint8_t* EncodeTo(std::uint8_t* p) const;
  void Encode(ByteWriter& out) const { EncodeTo(out.Extend(EncodedSize())); }
  [[nodiscard]] static Result<Stamp> Decode(ByteReader& in);
};

std::ostream& operator<<(std::ostream& os, const Stamp& stamp);

}  // namespace cmom::clocks
