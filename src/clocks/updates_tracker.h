// The Appendix-A "Updates" optimized stamping algorithm.
//
// Instead of piggybacking the full matrix on every message, the sender
// tracks, per matrix entry, the local state counter at its last
// modification (Mat[k][l].state) and, per destination, the state counter
// at the last send to that destination (Node[j].state).  A message to j
// then carries only the entries modified since the last send to j --
// O(changes) in the common case, O(s^2) only in the worst case.
//
// We also implement the last-writer refinement visible in the appendix
// (the "Mat[k,l].node" field): an entry whose current value was learned
// *from* j itself is never echoed back to j, since j's own clock already
// dominated it when j sent it.
//
// Correctness of delta stamps rests on per-link FIFO delivery, which the
// matrix-clock delivery condition itself enforces (message r+1 from i to
// j cannot be delivered before message r).  See MatrixClockCore in
// causal_core.h, which owns one tracker per clock.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "common/ids.h"

namespace cmom::clocks {

class UpdatesTracker {
 public:
  UpdatesTracker() = default;
  // `size` is the domain size (matrix dimension).
  explicit UpdatesTracker(std::size_t size);

  // Records that entry (row, col) changed now, learned from `writer`
  // (nullopt when the owner itself caused the change, e.g. its own
  // send counter).
  void NoteChange(DomainServerId row, DomainServerId col,
                  std::optional<DomainServerId> writer);

  // Builds the delta stamp for a message to `dest`: every entry of
  // `matrix` changed since the last send to `dest`, minus entries last
  // learned from `dest` itself.  Advances Node[dest].state.
  [[nodiscard]] Stamp CollectFor(DomainServerId dest,
                                 const MatrixClock& matrix);

  // Rebuilds the tracker over a new domain membership (epoch cutover),
  // mirroring MatrixClock::Remap.  Entries and per-destination send
  // state follow their mapped coordinates; everything touching a
  // departed member resets conservatively (state 0 / self-written), so
  // the next delta stamp to any peer over-approximates rather than
  // omits.  The global state counter is preserved.
  [[nodiscard]] UpdatesTracker Remap(
      std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new) const;

  // The tracker a decoded clock restarts from.  The tracker is not
  // persisted (losing it costs bandwidth, not correctness), so every
  // nonzero entry of `matrix` counts as changed since every
  // destination's last send, written by the owner: the first stamp to
  // each peer carries the whole live matrix, later ones are deltas.
  [[nodiscard]] static UpdatesTracker AllChanged(const MatrixClock& matrix);

 private:
  struct CellMeta {
    std::uint64_t state = 0;  // Mat[k][l].state: state counter at last change
    std::uint32_t writer = kSelfWriter;  // Mat[k][l].node
  };
  static constexpr std::uint32_t kSelfWriter = 0xFFFFFFFFu;

  [[nodiscard]] std::size_t index(DomainServerId row,
                                  DomainServerId col) const {
    return static_cast<std::size_t>(row.value()) * size_ + col.value();
  }

  std::size_t size_ = 0;
  std::uint64_t state_ = 0;                // the global State counter
  std::vector<CellMeta> cells_;            // per-entry metadata
  std::vector<std::uint64_t> node_state_;  // Node[j].state per destination
};

}  // namespace cmom::clocks
