#include "clocks/causal_core.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace cmom::clocks {

std::string_view CausalCoreKindName(CausalCoreKind kind) {
  switch (kind) {
    case CausalCoreKind::kMatrix: return "matrix";
    case CausalCoreKind::kHybrid: return "hybrid";
  }
  return "?";
}

std::optional<CausalCoreKind> ParseCausalCoreKind(std::string_view name) {
  if (name == "matrix") return CausalCoreKind::kMatrix;
  if (name == "hybrid") return CausalCoreKind::kHybrid;
  return std::nullopt;
}

std::size_t CausalCoreStampCost(CausalCoreKind kind,
                                std::size_t domain_size) {
  switch (kind) {
    case CausalCoreKind::kMatrix: return domain_size * domain_size;
    case CausalCoreKind::kHybrid: return 1;
  }
  return domain_size * domain_size;
}

// ---------------------------------------------------------------------------
// MatrixClockCore

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

std::unique_ptr<CausalCore> MatrixClockCore::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  auto out = std::unique_ptr<MatrixClockCore>(new MatrixClockCore());
  out->self_ = new_self;
  out->mode_ = mode_;
  out->matrix_ = matrix_.Remap(new_size, old_of_new);
  out->tracker_ = tracker_.Remap(new_size, old_of_new);
  return out;
}

void MatrixClockCore::EncodeState(ByteWriter& out) const {
  out.WriteU8(static_cast<std::uint8_t>(CausalCoreKind::kMatrix));
  out.WriteU16(self_.value());
  out.WriteU8(static_cast<std::uint8_t>(mode_));
  matrix_.Encode(out);
}

Result<std::unique_ptr<CausalCore>> MatrixClockCore::DecodeBody(
    ByteReader& in) {
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
  auto core = std::unique_ptr<MatrixClockCore>(new MatrixClockCore());
  core->self_ = DomainServerId(self.value());
  core->mode_ = static_cast<StampMode>(mode.value());
  core->matrix_ = std::move(matrix).value();
  core->tracker_ = UpdatesTracker::AllChanged(core->matrix_);
  return std::unique_ptr<CausalCore>(std::move(core));
}

bool MatrixClockCore::Equals(const CausalCore& other) const {
  const auto* rhs = dynamic_cast<const MatrixClockCore*>(&other);
  return rhs != nullptr && self_ == rhs->self_ && mode_ == rhs->mode_ &&
         matrix_ == rhs->matrix_;
}

// ---------------------------------------------------------------------------
// HybridBufferingCore

HybridBufferingCore::HybridBufferingCore(DomainServerId self,
                                         std::size_t domain_size)
    : self_(self), size_(domain_size), sent_(domain_size, 0),
      delivered_(domain_size, 0), heard_(domain_size * domain_size, 0),
      delivered_tick_(domain_size, 0), sent_tick_(domain_size, 0),
      heard_tick_(domain_size * domain_size, 0) {
  assert(self.value() < domain_size);
  assert(domain_size <= kHeardFlag && "hybrid core caps domains at 0x8000");
}

Stamp HybridBufferingCore::PrepareSend(DomainServerId dest) {
  assert(dest.value() < size_);
  const std::uint64_t seq = ++sent_[dest.value()];
  ++version_;
  Stamp stamp;
  stamp.entries.reserve(1 + barriers_.size());
  stamp.entries.push_back(StampEntry{self_, dest, seq});
  // The full barrier set rides on every message; that is what makes the
  // receiver's check transitively complete without any matrix.
  for (const auto& [link, bseq] : barriers_) {
    stamp.entries.push_back(StampEntry{DomainServerId(link.first),
                                       DomainServerId(link.second), bseq});
  }
  // Delivered-count gossip: every count that advanced since the last
  // send to this destination -- our own deliveries and counts heard
  // third-hand alike, so pruning knowledge spreads transitively.
  const std::uint64_t last = sent_tick_[dest.value()];
  for (std::uint16_t origin = 0; origin < size_; ++origin) {
    if (delivered_tick_[origin] > last) {
      stamp.entries.push_back(
          StampEntry{DomainServerId(origin | kHeardFlag), self_,
                     delivered_[origin]});
    }
  }
  for (std::uint16_t d = 0; d < size_; ++d) {
    if (d == self_.value()) continue;
    for (std::uint16_t origin = 0; origin < size_; ++origin) {
      const std::size_t idx =
          pair_index(DomainServerId(d), DomainServerId(origin));
      if (heard_tick_[idx] > last) {
        stamp.entries.push_back(StampEntry{DomainServerId(origin | kHeardFlag),
                                           DomainServerId(d), heard_[idx]});
      }
    }
  }
  sent_tick_[dest.value()] = tick_;
  // This message itself is now possibly undelivered; later sends (to
  // anyone) must carry it until its delivery is confirmed.
  barriers_[{self_.value(), dest.value()}] = seq;
  return stamp;
}

CheckResult HybridBufferingCore::CheckReceive(DomainServerId src,
                                              const Stamp& stamp) const {
  assert(src.value() < size_);
  assert(!stamp.entries.empty() && "hybrid stamp lacks its FIFO header");
  const StampEntry& header = stamp.entries.front();
  assert(header.row == src && "hybrid stamp header sender mismatch");
  const std::uint64_t delivered = delivered_[src.value()];
  if (header.value <= delivered) return CheckResult::kDuplicate;
  if (header.value > delivered + 1) return CheckResult::kHold;  // FIFO gap
  for (std::size_t i = 1; i < stamp.entries.size(); ++i) {
    const StampEntry& e = stamp.entries[i];
    if ((e.row.value() & kHeardFlag) != 0) continue;  // delivered gossip
    if (e.col != self_) continue;  // barrier for someone else
    // A message destined to us, in this message's causal past, that the
    // sender could not confirm as delivered.  FIFO per link means one
    // comparison settles every seq <= e.value.
    if (delivered_[e.row.value()] < e.value) return CheckResult::kHold;
  }
  return CheckResult::kDeliver;
}

void HybridBufferingCore::OnDeliver(DomainServerId src, const Stamp& stamp) {
  assert(!stamp.entries.empty());
  const StampEntry& header = stamp.entries.front();
  delivered_[src.value()] = header.value;
  ++tick_;
  delivered_tick_[src.value()] = tick_;
  ++version_;
  for (std::size_t i = 1; i < stamp.entries.size(); ++i) {
    const StampEntry& e = stamp.entries[i];
    if ((e.row.value() & kHeardFlag) != 0) {
      // Gossip: e.value messages of the origin -> e.col link are known
      // delivered.  Prune barriers on that link and remember the count.
      // Re-gossip onward ONLY when the count pruned one of our own
      // barriers: we then know we may have shipped that barrier to
      // others, so the confirmation retraces the barrier's own
      // dissemination paths instead of flooding every node with every
      // count (which would put the O(s^2) epidemic right back on the
      // wire).
      const DomainServerId origin(
          static_cast<std::uint16_t>(e.row.value() & ~kHeardFlag));
      if (e.col == self_) continue;  // our own deliveries; we know better
      std::uint64_t& known = heard_[pair_index(e.col, origin)];
      if (e.value <= known) continue;
      known = e.value;
      auto it = barriers_.find({origin.value(), e.col.value()});
      if (it != barriers_.end() && it->second <= e.value) {
        barriers_.erase(it);
        heard_tick_[pair_index(e.col, origin)] = tick_;
      }
      continue;
    }
    if (e.col == self_) continue;  // satisfied: CheckReceive proved it
    if (e.value <= heard_[pair_index(e.col, e.row)]) continue;  // delivered
    std::uint64_t& slot = barriers_[{e.row.value(), e.col.value()}];
    slot = std::max(slot, e.value);
  }
  // Our own delivery of this message prunes any barrier we carried for
  // the src -> self link.
  auto own = barriers_.find({src.value(), self_.value()});
  if (own != barriers_.end() && own->second <= header.value) {
    barriers_.erase(own);
  }
}

std::unique_ptr<CausalCore> HybridBufferingCore::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  assert(old_of_new.size() == new_size);
  auto out = std::unique_ptr<HybridBufferingCore>(new HybridBufferingCore());
  out->self_ = new_self;
  out->size_ = new_size;
  out->sent_.assign(new_size, 0);
  out->delivered_.assign(new_size, 0);
  out->heard_.assign(new_size * new_size, 0);
  out->delivered_tick_.assign(new_size, 0);
  out->sent_tick_.assign(new_size, 0);
  out->heard_tick_.assign(new_size * new_size, 0);
  // Old domain-local index of each new member, for barrier remapping.
  std::vector<std::optional<std::uint16_t>> new_of_old;
  for (std::uint16_t n = 0; n < new_size; ++n) {
    const auto& old = old_of_new[n];
    if (!old.has_value()) continue;
    out->sent_[n] = sent_[old->value()];
    out->delivered_[n] = delivered_[old->value()];
    if (new_of_old.size() <= old->value()) {
      new_of_old.resize(old->value() + 1);
    }
    new_of_old[old->value()] = n;
    for (std::uint16_t m = 0; m < new_size; ++m) {
      const auto& old_m = old_of_new[m];
      if (!old_m.has_value()) continue;
      out->heard_[out->pair_index(DomainServerId(n), DomainServerId(m))] =
          heard_[pair_index(DomainServerId(old->value()),
                            DomainServerId(old_m->value()))];
    }
  }
  auto mapped = [&](std::uint16_t old_id) -> std::optional<std::uint16_t> {
    if (old_id >= new_of_old.size()) return std::nullopt;
    return new_of_old[old_id];
  };
  // Barriers touching a departed member are dropped: the member is gone,
  // its undelivered messages with it (Remap runs on a quiesced domain).
  for (const auto& [link, seq] : barriers_) {
    const auto origin = mapped(link.first);
    const auto dest = mapped(link.second);
    if (!origin.has_value() || !dest.has_value()) continue;
    out->barriers_[{*origin, *dest}] = seq;
  }
  return out;
}

void HybridBufferingCore::EncodeState(ByteWriter& out) const {
  out.WriteU8(static_cast<std::uint8_t>(CausalCoreKind::kHybrid));
  out.WriteU16(self_.value());
  out.WriteVarU64(size_);
  for (std::uint64_t v : sent_) out.WriteVarU64(v);
  for (std::uint64_t v : delivered_) out.WriteVarU64(v);
  for (std::uint64_t v : heard_) out.WriteVarU64(v);
  out.WriteVarU64(tick_);
  for (std::uint64_t v : delivered_tick_) out.WriteVarU64(v);
  for (std::uint64_t v : sent_tick_) out.WriteVarU64(v);
  for (std::uint64_t v : heard_tick_) out.WriteVarU64(v);
  out.WriteVarU64(barriers_.size());
  for (const auto& [link, seq] : barriers_) {
    out.WriteU16(link.first);
    out.WriteU16(link.second);
    out.WriteVarU64(seq);
  }
}

Result<std::unique_ptr<CausalCore>> HybridBufferingCore::DecodeBody(
    ByteReader& in) {
  auto self = in.ReadU16();
  if (!self.ok()) return self.status();
  auto size = in.ReadVarU64();
  if (!size.ok()) return size.status();
  if (size.value() > HybridBufferingCore::kHeardFlag ||
      self.value() >= size.value()) {
    return Status::DataLoss("hybrid core image has bad geometry");
  }
  const std::size_t n = static_cast<std::size_t>(size.value());
  auto core = std::unique_ptr<HybridBufferingCore>(new HybridBufferingCore());
  core->self_ = DomainServerId(self.value());
  core->size_ = n;
  auto read_vec = [&in](std::vector<std::uint64_t>& vec,
                        std::size_t count) -> Status {
    vec.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto v = in.ReadVarU64();
      if (!v.ok()) return v.status();
      vec[i] = v.value();
    }
    return Status::Ok();
  };
  if (auto s = read_vec(core->sent_, n); !s.ok()) return s;
  if (auto s = read_vec(core->delivered_, n); !s.ok()) return s;
  if (auto s = read_vec(core->heard_, n * n); !s.ok()) return s;
  auto tick = in.ReadVarU64();
  if (!tick.ok()) return tick.status();
  core->tick_ = tick.value();
  if (auto s = read_vec(core->delivered_tick_, n); !s.ok()) return s;
  if (auto s = read_vec(core->sent_tick_, n); !s.ok()) return s;
  if (auto s = read_vec(core->heard_tick_, n * n); !s.ok()) return s;
  auto count = in.ReadVarU64();
  if (!count.ok()) return count.status();
  if (count.value() > in.remaining()) {
    return Status::DataLoss("hybrid core barrier count exceeds record");
  }
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto origin = in.ReadU16();
    if (!origin.ok()) return origin.status();
    auto dest = in.ReadU16();
    if (!dest.ok()) return dest.status();
    auto seq = in.ReadVarU64();
    if (!seq.ok()) return seq.status();
    core->barriers_[{origin.value(), dest.value()}] = seq.value();
  }
  return std::unique_ptr<CausalCore>(std::move(core));
}

bool HybridBufferingCore::Equals(const CausalCore& other) const {
  const auto* rhs = dynamic_cast<const HybridBufferingCore*>(&other);
  return rhs != nullptr && self_ == rhs->self_ && size_ == rhs->size_ &&
         sent_ == rhs->sent_ && delivered_ == rhs->delivered_ &&
         barriers_ == rhs->barriers_ && heard_ == rhs->heard_ &&
         tick_ == rhs->tick_ && delivered_tick_ == rhs->delivered_tick_ &&
         sent_tick_ == rhs->sent_tick_ && heard_tick_ == rhs->heard_tick_;
}

// ---------------------------------------------------------------------------

std::unique_ptr<CausalCore> MakeCausalCore(CausalCoreKind kind,
                                           DomainServerId self,
                                           std::size_t domain_size,
                                           StampMode mode) {
  if (kind == CausalCoreKind::kHybrid) {
    return std::make_unique<HybridBufferingCore>(self, domain_size);
  }
  return std::make_unique<MatrixClockCore>(self, domain_size, mode);
}

Result<std::unique_ptr<CausalCore>> DecodeCausalCoreState(
    std::span<const std::uint8_t> image) {
  ByteReader in(image);
  auto kind = in.ReadU8();
  if (!kind.ok()) return kind.status();
  auto core = [&]() -> Result<std::unique_ptr<CausalCore>> {
    switch (static_cast<CausalCoreKind>(kind.value())) {
      case CausalCoreKind::kMatrix: return MatrixClockCore::DecodeBody(in);
      case CausalCoreKind::kHybrid: return HybridBufferingCore::DecodeBody(in);
    }
    return Status::DataLoss(std::string("unknown causal core kind ")
                                .append(std::to_string(kind.value())));
  }();
  if (core.ok() && !in.exhausted()) {
    return Status::DataLoss("trailing bytes in causal core image");
  }
  return core;
}

}  // namespace cmom::clocks
