#include "control/epoch.h"

namespace cmom::control {

void EpochRecord::Encode(ByteWriter& out) const {
  out.WriteVarU64(epoch);
  out.WriteString(config_text);
  out.WriteString(prev_config_text);
}

Result<EpochRecord> EpochRecord::Decode(ByteReader& in) {
  auto epoch = in.ReadVarU64();
  if (!epoch.ok()) return epoch.status();
  auto text = in.ReadString();
  if (!text.ok()) return text.status();
  auto prev = in.ReadString();
  if (!prev.ok()) return prev.status();
  EpochRecord record;
  record.epoch = epoch.value();
  record.config_text = std::move(text).value();
  record.prev_config_text = std::move(prev).value();
  return record;
}

Result<std::optional<EpochRecord>> ParseEpochRecord(
    const std::optional<Bytes>& blob) {
  if (!blob.has_value()) return std::optional<EpochRecord>{};
  ByteReader in(*blob);
  auto record = EpochRecord::Decode(in);
  if (!record.ok()) return record.status();
  return std::optional<EpochRecord>{std::move(record).value()};
}

Result<std::optional<EpochRecord>> ReadEpochRecord(mom::Store& store,
                                                   std::string_view key) {
  return ParseEpochRecord(store.Get(key));
}

Bytes EncodeEpochRecord(const EpochRecord& record) {
  ByteWriter out;
  record.Encode(out);
  return std::move(out).Take();
}

Result<std::uint64_t> CurrentEpochOf(mom::Store& store) {
  auto record = ReadEpochRecord(store, kEpochCurrentKey);
  if (!record.ok()) return record.status();
  return record.value().has_value() ? record.value()->epoch : 0;
}

}  // namespace cmom::control
