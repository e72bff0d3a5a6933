#include "clocks/matrix_clock.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace cmom::clocks {

void MatrixClock::MergeFrom(const MatrixClock& other) {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i] = std::max(cells_[i], other.cells_[i]);
  }
}

bool MatrixClock::DominatedBy(const MatrixClock& other) const {
  assert(size_ == other.size_);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i] > other.cells_[i]) return false;
  }
  return true;
}

std::uint64_t MatrixClock::Total() const {
  return std::accumulate(cells_.begin(), cells_.end(), std::uint64_t{0});
}

MatrixClock MatrixClock::Remap(
    std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(old_of_new.size() == new_size);
  MatrixClock out(new_size);
  for (std::size_t i = 0; i < new_size; ++i) {
    if (!old_of_new[i]) continue;
    assert(old_of_new[i]->value() < size_);
    for (std::size_t j = 0; j < new_size; ++j) {
      if (!old_of_new[j]) continue;
      out.cells_[i * new_size + j] =
          cells_[static_cast<std::size_t>(old_of_new[i]->value()) * size_ +
                 old_of_new[j]->value()];
    }
  }
  return out;
}

std::size_t MatrixClock::EncodedSize() const {
  std::size_t size = VarU64Size(size_);
  for (std::uint64_t cell : cells_) size += VarU64Size(cell);
  return size;
}

std::uint8_t* MatrixClock::EncodeTo(std::uint8_t* p) const {
  p = PutVarU64(p, size_);
  for (std::uint64_t cell : cells_) p = PutVarU64(p, cell);
  return p;
}

Result<MatrixClock> MatrixClock::Decode(ByteReader& in) {
  auto size = in.ReadVarU64();
  if (!size.ok()) return size.status();
  // size^2 cells of >= 1 byte each must fit in the remaining input;
  // reject corrupt sizes before allocating from them.
  if (size.value() > 0xFFFF ||
      size.value() * size.value() > in.remaining()) {
    return Status::DataLoss("matrix size exceeds input");
  }
  MatrixClock clock(static_cast<std::size_t>(size.value()));
  const std::uint8_t* p = in.cursor();
  const std::uint8_t* const end = in.end();
  for (std::uint64_t& cell : clock.cells_) {
    p = GetVarU64(p, end, cell);
    if (p == nullptr) {
      return Status::DataLoss("truncated or overlong matrix cell");
    }
  }
  in.SkipTo(p);
  return clock;
}

}  // namespace cmom::clocks
