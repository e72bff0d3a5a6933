#include "mom/store_schema.h"

#include <algorithm>
#include <bit>

namespace cmom::mom {

namespace {

// Appends `value` as lower-case hex, zero-padded to `digits` nibbles
// (more when the value needs them, like printf's "%0*llx").
void AppendHex(std::string& out, std::uint64_t value, int digits) {
  const std::size_t width = std::max<std::size_t>(
      static_cast<std::size_t>(digits),
      static_cast<std::size_t>(std::bit_width(value) + 3) / 4);
  const std::size_t at = out.size();
  out.resize(at + width);
  for (std::size_t i = at + width; i > at; value >>= 4) {
    out[--i] = "0123456789abcdef"[value & 0xF];
  }
}

void AppendMessageId(std::string& out, MessageId id) {
  AppendHex(out, id.origin.value(), 4);
  AppendHex(out, id.seq, 16);
}

}  // namespace

std::string ClockKey(std::size_t deployment_index) {
  std::string key(kClockKeyPrefix);
  AppendHex(key, deployment_index, 4);
  return key;
}

std::string OutKey(MessageId id) {
  std::string key(kQueueOutKeyPrefix);
  AppendMessageId(key, id);
  return key;
}

std::string InKey(std::uint64_t seq) {
  std::string key(kQueueInKeyPrefix);
  AppendHex(key, seq, 16);
  return key;
}

std::string FwdKey(std::uint64_t seq) {
  std::string key(kFwdKeyPrefix);
  AppendHex(key, seq, 16);
  return key;
}

std::string HoldKey(std::size_t deployment_index, MessageId id) {
  std::string key(kHoldKeyPrefix);
  AppendHex(key, deployment_index, 4);
  key += '/';
  AppendMessageId(key, id);
  return key;
}

std::string AgentKey(std::uint32_t local_id) {
  return std::string(kAgentKeyPrefix) + std::to_string(local_id);
}

Result<std::uint64_t> ParseHexSuffix(std::string_view key,
                                     std::string_view prefix) {
  std::uint64_t value = 0;
  std::string_view digits = key.substr(prefix.size());
  if (digits.empty()) return Status::DataLoss("empty store key suffix");
  for (char c : digits) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return Status::DataLoss("bad hex digit in store key");
    }
    value = (value << 4) | nibble;
  }
  return value;
}

}  // namespace cmom::mom
