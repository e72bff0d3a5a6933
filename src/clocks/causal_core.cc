#include "clocks/causal_core.h"

#include <cassert>
#include <string>
#include <utility>

namespace cmom::clocks {

MatrixClockCore::MatrixClockCore(DomainServerId self, std::size_t domain_size,
                                 StampMode mode)
    : self_(self), mode_(mode), matrix_(domain_size), tracker_(domain_size) {
  assert(self.value() < domain_size);
}

Stamp MatrixClockCore::PrepareSend(DomainServerId dest) {
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

CheckResult MatrixClockCore::CheckReceive(DomainServerId src,
                                          const Stamp& stamp) const {
  const std::size_t size = matrix_.size();
  if (src.value() >= size) return CheckResult::kMalformed;
  // PrepareSend always bumps M[src][dest] last, so the entry is present
  // in both full and delta stamps; a stamp without it is corrupt.
  const StampEntry* own = nullptr;
  bool waits = false;  // some other sender's message to us is missing
  for (const StampEntry& e : stamp.entries) {
    if (e.row.value() >= size || e.col.value() >= size) {
      return CheckResult::kMalformed;
    }
    if (e.col != self_) continue;
    if (e.row == src) {
      if (own == nullptr) own = &e;
    } else if (e.value > matrix_.at(e.row, e.col)) {
      waits = true;
    }
  }
  if (own == nullptr) return CheckResult::kMalformed;
  const std::uint64_t delivered = matrix_.at(src, self_);
  if (own->value <= delivered) return CheckResult::kDuplicate;
  if (own->value > delivered + 1) return CheckResult::kHold;  // FIFO gap
  return waits ? CheckResult::kHold : CheckResult::kDeliver;
}

void MatrixClockCore::OnDeliver(DomainServerId src, const Stamp& stamp) {
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

MatrixClockCore MatrixClockCore::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  MatrixClockCore out;
  out.self_ = new_self;
  out.mode_ = mode_;
  out.matrix_ = matrix_.Remap(new_size, old_of_new);
  out.tracker_ = tracker_.Remap(new_size, old_of_new);
  return out;
}

std::size_t MatrixClockCore::EncodedStateSize() const {
  return 1 + sizeof(std::uint16_t) + 1 + matrix_.EncodedSize();
}

std::uint8_t* MatrixClockCore::EncodeStateTo(std::uint8_t* p) const {
  *p++ = kImageKind;
  p = PutLittleEndian(p, self_.value());
  *p++ = static_cast<std::uint8_t>(mode_);
  return matrix_.EncodeTo(p);
}

Result<MatrixClockCore> MatrixClockCore::Decode(
    std::span<const std::uint8_t> image) {
  ByteReader in(image);
  auto kind = in.ReadU8();
  if (!kind.ok()) return kind.status();
  if (kind.value() != kImageKind) {
    return Status::DataLoss(std::string("unknown causal core kind ")
                                .append(std::to_string(kind.value())));
  }
  auto self = in.ReadU16();
  if (!self.ok()) return self.status();
  auto mode = in.ReadU8();
  if (!mode.ok()) return mode.status();
  if (mode.value() > static_cast<std::uint8_t>(StampMode::kUpdates)) {
    return Status::DataLoss("bad stamp mode");
  }
  auto matrix = MatrixClock::Decode(in);
  if (!matrix.ok()) return matrix.status();
  if (self.value() >= matrix.value().size()) {
    return Status::DataLoss("matrix core self id out of range");
  }
  if (!in.exhausted()) {
    return Status::DataLoss("trailing bytes in causal core image");
  }
  MatrixClockCore core;
  core.self_ = DomainServerId(self.value());
  core.mode_ = static_cast<StampMode>(mode.value());
  core.matrix_ = std::move(matrix).value();
  core.tracker_ = UpdatesTracker::AllChanged(core.matrix_);
  return core;
}

bool MatrixClockCore::Equals(const MatrixClockCore& other) const {
  return self_ == other.self_ && mode_ == other.mode_ &&
         matrix_ == other.matrix_;
}

std::unique_ptr<CausalCore> MakeCausalCore(CausalCoreKind /*kind*/,
                                           DomainServerId self,
                                           std::size_t domain_size,
                                           StampMode mode) {
  return std::make_unique<MatrixClockCore>(self, domain_size, mode);
}

}  // namespace cmom::clocks
