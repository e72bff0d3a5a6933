#include "clocks/stamp.h"

namespace cmom::clocks {

const StampEntry* Stamp::Find(DomainServerId row, DomainServerId col) const {
  for (const StampEntry& e : entries) {
    if (e.row == row && e.col == col) return &e;
  }
  return nullptr;
}

std::size_t Stamp::EncodedSize() const {
  std::size_t size = VarU64Size(entries.size());
  for (const StampEntry& e : entries) {
    size += VarU64Size(e.row.value()) + VarU64Size(e.col.value()) +
            VarU64Size(e.value);
  }
  return size;
}

std::uint8_t* Stamp::EncodeTo(std::uint8_t* p) const {
  p = PutVarU64(p, entries.size());
  for (const StampEntry& e : entries) {
    p = PutVarU64(p, e.row.value());
    p = PutVarU64(p, e.col.value());
    p = PutVarU64(p, e.value);
  }
  return p;
}

Result<Stamp> Stamp::Decode(ByteReader& in) {
  auto count = in.ReadVarU64();
  if (!count.ok()) return count.status();
  // Each entry costs at least 3 encoded bytes; a count the input cannot
  // possibly back is corruption, and must be rejected *before* any
  // allocation sized from it.
  if (count.value() > in.remaining() / 3) {
    return Status::DataLoss("stamp entry count exceeds input");
  }
  Stamp stamp;
  stamp.entries.resize(static_cast<std::size_t>(count.value()));
  const std::uint8_t* p = in.cursor();
  const std::uint8_t* const end = in.end();
  for (StampEntry& e : stamp.entries) {
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    p = GetVarU64(p, end, row);
    if (p != nullptr) p = GetVarU64(p, end, col);
    if (p != nullptr) p = GetVarU64(p, end, e.value);
    if (p == nullptr) {
      return Status::DataLoss("truncated or overlong stamp entry");
    }
    // Domain-local ids are 16-bit; a wider coordinate is corruption,
    // not an id to truncate.
    if (row > 0xFFFF || col > 0xFFFF) {
      return Status::DataLoss("stamp coordinate exceeds 16 bits");
    }
    e.row = DomainServerId(static_cast<std::uint16_t>(row));
    e.col = DomainServerId(static_cast<std::uint16_t>(col));
  }
  in.SkipTo(p);
  return stamp;
}

std::ostream& operator<<(std::ostream& os, const Stamp& stamp) {
  os << "{";
  for (std::size_t i = 0; i < stamp.entries.size(); ++i) {
    const StampEntry& e = stamp.entries[i];
    if (i > 0) os << ", ";
    os << "(" << e.row << "," << e.col << ")=" << e.value;
  }
  return os << "}";
}

}  // namespace cmom::clocks
