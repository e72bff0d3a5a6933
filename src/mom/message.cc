#include "mom/message.h"

#include "common/buffer_pool.h"

namespace cmom::mom {

namespace {

void EncodeAgentId(ByteWriter& out, const AgentId& id) {
  out.WriteU16(id.server.value());
  out.WriteVarU32(id.local);
}

Result<AgentId> DecodeAgentId(ByteReader& in) {
  auto server = in.ReadU16();
  if (!server.ok()) return server.status();
  auto local = in.ReadVarU32();
  if (!local.ok()) return local.status();
  return AgentId{ServerId(server.value()), local.value()};
}

void EncodeMessageId(ByteWriter& out, const MessageId& id) {
  out.WriteU16(id.origin.value());
  out.WriteVarU64(id.seq);
}

Result<MessageId> DecodeMessageId(ByteReader& in) {
  auto origin = in.ReadU16();
  if (!origin.ok()) return origin.status();
  auto seq = in.ReadVarU64();
  if (!seq.ok()) return seq.status();
  return MessageId{ServerId(origin.value()), seq.value()};
}

}  // namespace

void Message::Encode(ByteWriter& out) const {
  EncodeMessageId(out, id);
  EncodeAgentId(out, from);
  EncodeAgentId(out, to);
  out.WriteString(subject);
  out.WriteBytes(payload);
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

void DataFrame::SerializeInto(ByteWriter& out) const {
  out.WriteU8(static_cast<std::uint8_t>(FrameType::kData));
  message.Encode(out);
  out.WriteU16(domain.value());
  out.WriteVarU64(epoch);
  stamp.Encode(out);
  out.WriteVarU64(incarnation);
}

Bytes DataFrame::Serialize() const {
  // Size hint: frame type + domain + ids/subject/payload + stamp, with
  // a small slop for the varint headers; the buffer comes from the
  // calling thread's pool, so a steady-state emit path allocates
  // nothing per frame.
  ByteWriter out = PooledWriter(16 + message.subject.size() +
                                message.payload.size() + stamp.EncodedSize());
  SerializeInto(out);
  return std::move(out).Take();
}

std::size_t DataFrame::SerializedSize() const {
  Bytes encoded = Serialize();
  const std::size_t size = encoded.size();
  BufferPool::Release(std::move(encoded));
  return size;
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
  ByteWriter out = PooledWriter(16 + 10 * messages.size());
  out.WriteU8(static_cast<std::uint8_t>(FrameType::kAck));
  out.WriteVarU32(static_cast<std::uint32_t>(messages.size()));
  for (const MessageId& id : messages) EncodeMessageId(out, id);
  // Flow-control section, gated on a flags byte: bit 0 the cumulative
  // grant, bit 1 the restart-renegotiation session/echo/accepted trio.
  out.WriteU8(static_cast<std::uint8_t>((has_credit ? 1 : 0) |
                                        (has_session ? 2 : 0)));
  if (has_credit) out.WriteVarU64(credit);
  if (has_session) {
    out.WriteVarU64(session);
    out.WriteVarU64(echo);
    out.WriteVarU64(accepted);
  }
  return std::move(out).Take();
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
