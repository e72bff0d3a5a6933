#include "clocks/causal_clock.h"

#include <cassert>

namespace cmom::clocks {

CausalDomainClock::CausalDomainClock(DomainServerId self,
                                     std::size_t domain_size, StampMode mode)
    : self_(self), mode_(mode), matrix_(domain_size),
      tracker_(domain_size) {
  assert(self.value() < domain_size);
}

Stamp CausalDomainClock::PrepareSend(DomainServerId dest) {
  assert(dest.value() < matrix_.size());
  matrix_.Increment(self_, dest);
  ++version_;
  tracker_.NoteChange(self_, dest, std::nullopt);
  if (mode_ == StampMode::kUpdates) {
    return tracker_.CollectFor(dest, matrix_);
  }
  Stamp stamp;
  stamp.entries.reserve(matrix_.size() * matrix_.size());
  for (std::uint16_t row = 0; row < matrix_.size(); ++row) {
    for (std::uint16_t col = 0; col < matrix_.size(); ++col) {
      stamp.entries.push_back(StampEntry{
          DomainServerId(row), DomainServerId(col),
          matrix_.at(DomainServerId(row), DomainServerId(col))});
    }
  }
  return stamp;
}

CheckResult CausalDomainClock::Check(DomainServerId src,
                                     const Stamp& stamp) const {
  assert(src.value() < matrix_.size());
  const StampEntry* own = stamp.Find(src, self_);
  // PrepareSend always bumps M[src][dest] last, so the entry is present
  // in both full and delta stamps; a stamp without it is corrupt.
  assert(own != nullptr && "stamp lacks its own send counter");
  const std::uint64_t delivered = matrix_.at(src, self_);
  if (own->value <= delivered) return CheckResult::kDuplicate;
  if (own->value > delivered + 1) return CheckResult::kHold;  // FIFO gap
  for (const StampEntry& e : stamp.entries) {
    if (e.col != self_ || e.row == src) continue;
    if (e.value > matrix_.at(e.row, e.col)) return CheckResult::kHold;
  }
  return CheckResult::kDeliver;
}

void CausalDomainClock::Commit(DomainServerId src, const Stamp& stamp) {
  bool changed = false;
  for (const StampEntry& e : stamp.entries) {
    if (e.value > matrix_.at(e.row, e.col)) {
      matrix_.set(e.row, e.col, e.value);
      tracker_.NoteChange(e.row, e.col, src);
      changed = true;
    }
  }
  if (changed) ++version_;
}

CausalDomainClock CausalDomainClock::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  CausalDomainClock out;
  out.self_ = new_self;
  out.mode_ = mode_;
  out.matrix_ = matrix_.Remap(new_size, old_of_new);
  out.tracker_ = tracker_.Remap(new_size, old_of_new);
  return out;
}

void CausalDomainClock::EncodeState(ByteWriter& out) const {
  out.WriteU16(self_.value());
  out.WriteU8(static_cast<std::uint8_t>(mode_));
  matrix_.Encode(out);
  tracker_.Encode(out);
}

Result<CausalDomainClock> CausalDomainClock::DecodeState(ByteReader& in) {
  auto self = in.ReadU16();
  if (!self.ok()) return self.status();
  return DecodeStateTail(in, DomainServerId(self.value()));
}

Result<CausalDomainClock> CausalDomainClock::DecodeStateTail(
    ByteReader& in, DomainServerId self) {
  auto mode = in.ReadU8();
  if (!mode.ok()) return mode.status();
  if (mode.value() > static_cast<std::uint8_t>(StampMode::kUpdates)) {
    return Status::DataLoss("bad stamp mode");
  }
  auto matrix = MatrixClock::Decode(in);
  if (!matrix.ok()) return matrix.status();
  auto tracker = UpdatesTracker::Decode(in);
  if (!tracker.ok()) return tracker.status();
  CausalDomainClock clock;
  clock.self_ = self;
  clock.mode_ = static_cast<StampMode>(mode.value());
  clock.matrix_ = std::move(matrix).value();
  clock.tracker_ = std::move(tracker).value();
  return clock;
}

}  // namespace cmom::clocks
