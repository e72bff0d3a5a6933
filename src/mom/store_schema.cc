#include "mom/store_schema.h"

#include <cstdio>

namespace cmom::mom {

namespace {

void AppendHex(std::string& out, std::uint64_t value, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%0*llx", digits,
                static_cast<unsigned long long>(value));
  out += buf;
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
