#include "clocks/updates_tracker.h"

namespace cmom::clocks {

UpdatesTracker::UpdatesTracker(std::size_t size)
    : size_(size), cells_(size * size), node_state_(size, 0) {}

void UpdatesTracker::NoteChange(DomainServerId row, DomainServerId col,
                                std::optional<DomainServerId> writer) {
  CellMeta& cell = cells_[index(row, col)];
  cell.state = ++state_;
  cell.writer = writer ? writer->value() : kSelfWriter;
}

Stamp UpdatesTracker::CollectFor(DomainServerId dest,
                                 const MatrixClock& matrix) {
  const std::uint64_t since = node_state_[dest.value()];
  // An entry ships when it changed since the last send to dest and was
  // not learned from dest (which already knows it).  The & (not &&)
  // keeps the counting pass that sizes the stamp free of branches.
  const auto ships = [&](const CellMeta& cell) {
    return (cell.state > since) & (cell.writer != dest.value());
  };
  std::size_t count = 0;
  for (const CellMeta& cell : cells_) count += ships(cell) ? 1 : 0;
  Stamp stamp;
  stamp.entries.reserve(count);
  for (std::uint16_t row = 0; row < size_; ++row) {
    for (std::uint16_t col = 0; col < size_; ++col) {
      const CellMeta& cell = cells_[static_cast<std::size_t>(row) * size_ + col];
      if (!ships(cell)) continue;
      stamp.entries.push_back(StampEntry{DomainServerId(row),
                                         DomainServerId(col),
                                         matrix.at(DomainServerId(row),
                                                   DomainServerId(col))});
    }
  }
  node_state_[dest.value()] = state_;
  return stamp;
}

UpdatesTracker UpdatesTracker::Remap(
    std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  // Inverse map: old local id -> new local id (or none when departed).
  std::vector<std::optional<std::uint16_t>> new_of_old(size_);
  for (std::size_t i = 0; i < new_size; ++i) {
    if (old_of_new[i]) {
      new_of_old[old_of_new[i]->value()] =
          static_cast<std::uint16_t>(i);
    }
  }
  UpdatesTracker out(new_size);
  out.state_ = state_;
  for (std::size_t i = 0; i < new_size; ++i) {
    if (!old_of_new[i]) continue;
    for (std::size_t j = 0; j < new_size; ++j) {
      if (!old_of_new[j]) continue;
      const CellMeta& old_cell =
          cells_[static_cast<std::size_t>(old_of_new[i]->value()) * size_ +
                 old_of_new[j]->value()];
      CellMeta& cell = out.cells_[i * new_size + j];
      cell.state = old_cell.state;
      // The "never echo back to its writer" refinement only survives
      // when the writer is still a member; a departed writer resets to
      // self-written so the entry is (redundantly, safely) re-sent.
      cell.writer = kSelfWriter;
      if (old_cell.writer != kSelfWriter &&
          old_cell.writer < new_of_old.size() &&
          new_of_old[old_cell.writer]) {
        cell.writer = *new_of_old[old_cell.writer];
      }
    }
  }
  for (std::size_t j = 0; j < new_size; ++j) {
    // A joiner starts at 0: the first message to it carries every live
    // entry, i.e. the full matrix it has no other way to learn.
    out.node_state_[j] =
        old_of_new[j] ? node_state_[old_of_new[j]->value()] : 0;
  }
  return out;
}

UpdatesTracker UpdatesTracker::AllChanged(const MatrixClock& matrix) {
  UpdatesTracker out(matrix.size());
  out.state_ = 1;
  for (std::uint16_t row = 0; row < out.size_; ++row) {
    for (std::uint16_t col = 0; col < out.size_; ++col) {
      if (matrix.at(DomainServerId(row), DomainServerId(col)) != 0) {
        out.cells_[out.index(DomainServerId(row), DomainServerId(col))]
            .state = 1;
      }
    }
  }
  return out;
}

}  // namespace cmom::clocks
