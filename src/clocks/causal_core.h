// The causal-delivery core: the paper's per-domain matrix clock.
//
// Raynal-Schiper-Toueg over domain-local ids, one instance per (server,
// domain) pair (the paper's DomainItem holds it, see Section 5):
//
//   send i -> j : M[i][j] += 1; piggyback stamp
//   recv at j from i, stamp T:
//     deliverable  iff  T[i][j] == M[i][j] + 1
//                  and  for all k != i : T[k][j] <= M[k][j]
//     on delivery  M := max(M, T) entrywise
//
// With StampMode::kFullMatrix the stamp carries all s^2 entries; with
// StampMode::kUpdates it carries only the Appendix-A delta.  The
// delivery condition only ever needs entries with col == j: an entry
// absent from a delta stamp was unchanged since an earlier message on
// the same link, and the FIFO-per-link order that the condition itself
// enforces guarantees the receiver already merged it, so the missing
// entry satisfies the check vacuously.
//
// Stamps come off the wire, so CheckReceive validates before it reads:
// a sender or an entry outside the domain, or a stamp without its own
// (src, self) send counter, is kMalformed and touches nothing.
//
// The durable image is a kind byte (always kImageKind), the self id,
// the stamp mode and the matrix.  The Updates tracker is not persisted:
// decoding rebuilds it as "every nonzero entry changed since every
// destination's last send", so the first stamp to each peer after a
// reboot or a cutover carries the whole live matrix and later stamps
// are deltas again.  That is safe because stamps carry absolute values
// which the receiver max-merges, and CheckReceive reads only the
// receiver's column, so a larger stamp is never wrong -- losing the
// tracker costs bandwidth, not correctness.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "clocks/updates_tracker.h"
#include "common/bytes.h"
#include "common/ids.h"
#include "common/status.h"

namespace cmom::clocks {

class MatrixClockCore {
 public:
  // Leading byte of every image; Decode rejects any other (DESIGN §16.2).
  static constexpr std::uint8_t kImageKind = 0;

  MatrixClockCore(DomainServerId self, std::size_t domain_size,
                  StampMode mode);

  [[nodiscard]] DomainServerId self() const { return self_; }
  [[nodiscard]] std::size_t domain_size() const { return matrix_.size(); }
  [[nodiscard]] StampMode mode() const { return mode_; }
  [[nodiscard]] const MatrixClock& matrix() const { return matrix_; }

  // Sender side: accounts for one message self -> dest and returns the
  // stamp to piggyback on it.
  [[nodiscard]] Stamp PrepareSend(DomainServerId dest);

  // Receiver side, step 1: classify an incoming message from `src`
  // stamped `stamp` without changing any state.
  [[nodiscard]] CheckResult CheckReceive(DomainServerId src,
                                         const Stamp& stamp) const;

  // Receiver side, step 2: merge the stamp into the local state.  Must
  // only be called after CheckReceive() returned kDeliver.
  void OnDeliver(DomainServerId src, const Stamp& stamp);

  // Rebuilds the core over a new domain membership (epoch cutover);
  // matrix and tracker are remapped together (see MatrixClock::Remap)
  // and the stamp mode is preserved.  Only correct on a quiesced domain.
  [[nodiscard]] MatrixClockCore Remap(
      DomainServerId new_self, std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new) const;

  // The durable image: EncodedStateSize() is its exact length, computed
  // without encoding, and EncodeStateTo writes it at `p`, which must
  // have that many bytes of room.
  [[nodiscard]] std::size_t EncodedStateSize() const;
  std::uint8_t* EncodeStateTo(std::uint8_t* p) const;
  void EncodeState(ByteWriter& out) const {
    EncodeStateTo(out.Extend(EncodedStateSize()));
  }
  // Decodes one whole image.  A kind byte other than kImageKind, a
  // malformed payload or any trailing byte is kDataLoss.
  [[nodiscard]] static Result<MatrixClockCore> Decode(
      std::span<const std::uint8_t> image);

  // Bumped by every PrepareSend and by every OnDeliver that changed at
  // least one matrix entry.  The Channel skips the domain's durable
  // image while it is unchanged -- the disk-layer analogue of the
  // Appendix A "send only the delta" optimization.  Transient: restarts
  // at 0 after Decode and Remap.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  // Equality of the durable state (self, mode, matrix), ignoring the
  // version and the Updates tracker.  Used by recovery tests.
  [[nodiscard]] bool Equals(const MatrixClockCore& other) const;

 private:
  MatrixClockCore() = default;

  DomainServerId self_;
  StampMode mode_ = StampMode::kUpdates;
  MatrixClock matrix_;
  UpdatesTracker tracker_;
  std::uint64_t version_ = 0;
};

// The seam perfbench's replay ladder builds its cores through
// (MakeCausalCore(config.CoreFor(id), ...) into a unique_ptr of
// CausalCore).  The matrix clock is the only core, so the kind has one
// value and the factory ignores it.
using CausalCore = MatrixClockCore;
enum class CausalCoreKind : std::uint8_t { kMatrix = 0 };
[[nodiscard]] std::unique_ptr<CausalCore> MakeCausalCore(
    CausalCoreKind kind, DomainServerId self, std::size_t domain_size,
    StampMode mode);

}  // namespace cmom::clocks
