#include "clocks/stamp.h"

namespace cmom::clocks {

const StampEntry* Stamp::Find(DomainServerId row, DomainServerId col) const {
  for (const StampEntry& e : entries) {
    if (e.row == row && e.col == col) return &e;
  }
  return nullptr;
}

void Stamp::Encode(ByteWriter& out) const {
  out.WriteVarU64(entries.size());
  for (const StampEntry& e : entries) {
    out.WriteVarU32(e.row.value());
    out.WriteVarU32(e.col.value());
    out.WriteVarU64(e.value);
  }
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
  stamp.entries.reserve(static_cast<std::size_t>(count.value()));
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto row = in.ReadVarU32();
    if (!row.ok()) return row.status();
    auto col = in.ReadVarU32();
    if (!col.ok()) return col.status();
    auto value = in.ReadVarU64();
    if (!value.ok()) return value.status();
    // Domain-local ids are 16-bit; a wider coordinate is corruption,
    // not an id to truncate.
    if (row.value() > 0xFFFF || col.value() > 0xFFFF) {
      return Status::DataLoss("stamp coordinate exceeds 16 bits");
    }
    stamp.entries.push_back(StampEntry{
        DomainServerId(static_cast<std::uint16_t>(row.value())),
        DomainServerId(static_cast<std::uint16_t>(col.value())),
        value.value()});
  }
  return stamp;
}

std::size_t Stamp::EncodedSize() const {
  ByteWriter writer;
  Encode(writer);
  return writer.size();
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
