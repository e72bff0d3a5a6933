#include "mom/message.h"

#include <cassert>

#include "common/buffer_pool.h"

namespace cmom::mom {

namespace {

constexpr std::size_t kU16 = sizeof(std::uint16_t);

std::size_t AgentIdSize(const AgentId& id) {
  return kU16 + VarU64Size(id.local);
}

std::uint8_t* PutAgentId(std::uint8_t* p, const AgentId& id) {
  p = PutLittleEndian(p, id.server.value());
  return PutVarU64(p, id.local);
}

Result<AgentId> DecodeAgentId(ByteReader& in) {
  auto server = in.ReadU16();
  if (!server.ok()) return server.status();
  auto local = in.ReadVarU32();
  if (!local.ok()) return local.status();
  return AgentId{ServerId(server.value()), local.value()};
}

std::size_t MessageIdSize(const MessageId& id) {
  return kU16 + VarU64Size(id.seq);
}

std::uint8_t* PutMessageId(std::uint8_t* p, const MessageId& id) {
  p = PutLittleEndian(p, id.origin.value());
  return PutVarU64(p, id.seq);
}

Result<MessageId> DecodeMessageId(ByteReader& in) {
  auto origin = in.ReadU16();
  if (!origin.ok()) return origin.status();
  auto seq = in.ReadVarU64();
  if (!seq.ok()) return seq.status();
  return MessageId{ServerId(origin.value()), seq.value()};
}

}  // namespace

std::size_t Message::EncodedSize() const {
  return MessageIdSize(id) + AgentIdSize(from) + AgentIdSize(to) +
         LengthPrefixedSize(subject.size()) +
         LengthPrefixedSize(payload.size());
}

std::uint8_t* Message::EncodeTo(std::uint8_t* p) const {
  p = PutMessageId(p, id);
  p = PutAgentId(p, from);
  p = PutAgentId(p, to);
  p = PutLengthPrefixed(p, subject.data(), subject.size());
  return PutLengthPrefixed(p, payload.data(), payload.size());
}

Result<Message> Message::Decode(ByteReader& in) {
  auto id = DecodeMessageId(in);
  if (!id.ok()) return id.status();
  auto from = DecodeAgentId(in);
  if (!from.ok()) return from.status();
  auto to = DecodeAgentId(in);
  if (!to.ok()) return to.status();
  auto subject = in.ReadString();
  if (!subject.ok()) return subject.status();
  auto payload = in.ReadBytesPooled();
  if (!payload.ok()) return payload.status();
  Message message;
  message.id = id.value();
  message.from = from.value();
  message.to = to.value();
  message.subject = std::move(subject).value();
  message.payload = std::move(payload).value();
  return message;
}

std::size_t DataFrameView::SerializedSize() const {
  return 1 + message.EncodedSize() + kU16 + VarU64Size(epoch) + stamp_size +
         VarU64Size(incarnation);
}

std::uint8_t* DataFrameView::SerializeInto(std::uint8_t* p) const {
  *p++ = static_cast<std::uint8_t>(FrameType::kData);
  p = message.EncodeTo(p);
  p = PutLittleEndian(p, domain.value());
  p = PutVarU64(p, epoch);
  p = stamp.EncodeTo(p);
  return PutVarU64(p, incarnation);
}

Bytes DataFrameView::Serialize() const {
  // The buffer comes from the calling thread's pool, so a steady-state
  // emit path allocates nothing per frame.
  Bytes out = PooledBuffer(SerializedSize());
  [[maybe_unused]] const std::uint8_t* end = SerializeInto(out.data());
  assert(end == out.data() + out.size());
  return out;
}

Result<DataFrame> DataFrame::Deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  auto type = in.ReadU8();
  if (!type.ok()) return type.status();
  if (type.value() != static_cast<std::uint8_t>(FrameType::kData)) {
    return Status::DataLoss("not a data frame");
  }
  auto message = Message::Decode(in);
  if (!message.ok()) return message.status();
  auto domain = in.ReadU16();
  if (!domain.ok()) return domain.status();
  auto epoch = in.ReadVarU64();
  if (!epoch.ok()) return epoch.status();
  auto stamp = clocks::Stamp::Decode(in);
  if (!stamp.ok()) return stamp.status();
  auto incarnation = in.ReadVarU64();
  if (!incarnation.ok()) return incarnation.status();
  DataFrame frame;
  frame.message = std::move(message).value();
  frame.domain = DomainId(domain.value());
  frame.stamp = std::move(stamp).value();
  frame.epoch = epoch.value();
  frame.incarnation = incarnation.value();
  if (!in.exhausted()) return Status::DataLoss("trailing bytes in data frame");
  return frame;
}

Bytes AckFrame::Serialize() const {
  // Flow-control section, gated on a flags byte: bit 0 the cumulative
  // grant, bit 1 the restart-renegotiation session/echo/accepted trio.
  const auto count = static_cast<std::uint32_t>(messages.size());
  std::size_t size = 1 + VarU64Size(count) + 1;
  for (const MessageId& id : messages) size += MessageIdSize(id);
  if (has_credit) size += VarU64Size(credit);
  if (has_session) {
    size += VarU64Size(session) + VarU64Size(echo) + VarU64Size(accepted);
  }
  Bytes out = PooledBuffer(size);
  std::uint8_t* p = out.data();
  *p++ = static_cast<std::uint8_t>(FrameType::kAck);
  p = PutVarU64(p, count);
  for (const MessageId& id : messages) p = PutMessageId(p, id);
  *p++ = static_cast<std::uint8_t>((has_credit ? 1 : 0) |
                                   (has_session ? 2 : 0));
  if (has_credit) p = PutVarU64(p, credit);
  if (has_session) {
    p = PutVarU64(p, session);
    p = PutVarU64(p, echo);
    p = PutVarU64(p, accepted);
  }
  assert(p == out.data() + size);
  return out;
}

Result<FrameType> PeekFrameType(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return Status::DataLoss("empty frame");
  const std::uint8_t type = bytes[0];
  if (type != static_cast<std::uint8_t>(FrameType::kData) &&
      type != static_cast<std::uint8_t>(FrameType::kAck)) {
    return Status::DataLoss("unknown frame type");
  }
  return static_cast<FrameType>(type);
}

Result<AckFrame> DeserializeAck(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  auto type = in.ReadU8();
  if (!type.ok()) return type.status();
  if (type.value() != static_cast<std::uint8_t>(FrameType::kAck)) {
    return Status::DataLoss("not an ack frame");
  }
  auto count = in.ReadVarU32();
  if (!count.ok()) return count.status();
  // Each id costs at least 3 bytes; a count beyond the remaining bytes
  // is corruption, not a huge allocation request.
  if (count.value() > in.remaining()) {
    return Status::DataLoss("ack count exceeds frame size");
  }
  AckFrame ack;
  ack.messages.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto id = DecodeMessageId(in);
    if (!id.ok()) return id.status();
    ack.messages.push_back(id.value());
  }
  auto flags = in.ReadU8();
  if (!flags.ok()) return flags.status();
  if ((flags.value() & ~3u) != 0) return Status::DataLoss("bad ack flags");
  if ((flags.value() & 1) != 0) {
    auto credit = in.ReadVarU64();
    if (!credit.ok()) return credit.status();
    ack.has_credit = true;
    ack.credit = credit.value();
  }
  if ((flags.value() & 2) != 0) {
    auto session = in.ReadVarU64();
    if (!session.ok()) return session.status();
    auto echo = in.ReadVarU64();
    if (!echo.ok()) return echo.status();
    auto accepted = in.ReadVarU64();
    if (!accepted.ok()) return accepted.status();
    ack.has_session = true;
    ack.session = session.value();
    ack.echo = echo.value();
    ack.accepted = accepted.value();
  }
  if (!in.exhausted()) return Status::DataLoss("trailing bytes in ack frame");
  return ack;
}

}  // namespace cmom::mom
