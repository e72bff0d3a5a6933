// Dense matrix clock.
//
// Entry M[k][l] counts the messages sent by server k to server l that
// the owner of the clock knows about (the Raynal-Schiper-Toueg
// convention, reference [12] of the paper, which the AAA MOM uses).
// A matrix clock over n servers needs n^2 entries; the paper's whole
// point is to keep n small by scoping one clock per *domain* instead of
// one global clock, so this class is always indexed by DomainServerId.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/status.h"

namespace cmom::clocks {

class MatrixClock {
 public:
  MatrixClock() = default;
  explicit MatrixClock(std::size_t size) : size_(size), cells_(size * size, 0) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::uint64_t at(DomainServerId row, DomainServerId col) const {
    return cells_[index(row, col)];
  }
  void set(DomainServerId row, DomainServerId col, std::uint64_t v) {
    cells_[index(row, col)] = v;
  }
  // Increments M[row][col] and returns the new value.
  std::uint64_t Increment(DomainServerId row, DomainServerId col) {
    return ++cells_[index(row, col)];
  }

  // Entrywise max with another clock of the same size (lattice join).
  void MergeFrom(const MatrixClock& other);

  // True if every entry of this clock is <= the corresponding entry of
  // other (lattice order).
  [[nodiscard]] bool DominatedBy(const MatrixClock& other) const;

  // Sum of all entries; a cheap progress measure used by tests.
  [[nodiscard]] std::uint64_t Total() const;

  // Rebuilds the clock over a new domain membership (epoch cutover):
  // `old_of_new[i]` is the old local id now sitting at new local id i,
  // or nullopt for a member that just joined.  New entry (i, j) takes
  // the old value when both coordinates map and 0 otherwise -- growing,
  // shrinking and permuting are all the same operation.  Only correct
  // on a quiesced domain (no frame in flight carries old coordinates).
  [[nodiscard]] MatrixClock Remap(
      std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new) const;

  [[nodiscard]] bool operator==(const MatrixClock&) const = default;

  // Persistent image of the clock, as the AAA Channel stores on each
  // commit.  The encoded size is what the paper's "high disk I/O"
  // concern is about, so callers can meter it; EncodedSize() sums the
  // cells' varint sizes without encoding them, and EncodeTo writes the
  // image at `p`, which must have that many bytes of room.
  [[nodiscard]] std::size_t EncodedSize() const;
  std::uint8_t* EncodeTo(std::uint8_t* p) const;
  void Encode(ByteWriter& out) const { EncodeTo(out.Extend(EncodedSize())); }
  [[nodiscard]] static Result<MatrixClock> Decode(ByteReader& in);

 private:
  [[nodiscard]] std::size_t index(DomainServerId row, DomainServerId col) const {
    return static_cast<std::size_t>(row.value()) * size_ + col.value();
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> cells_;
};

}  // namespace cmom::clocks
