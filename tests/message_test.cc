// Tests for message and frame codecs.
#include "mom/message.h"

#include <gtest/gtest.h>

namespace cmom::mom {
namespace {

Message SampleMessage() {
  Message message;
  message.id = MessageId{ServerId(3), 99};
  message.from = AgentId{ServerId(3), 1};
  message.to = AgentId{ServerId(7), 2};
  message.subject = "quote";
  message.payload = Bytes{10, 20, 30};
  return message;
}

TEST(Message, CodecRoundTrip) {
  const Message message = SampleMessage();
  ByteWriter writer;
  message.Encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = Message::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), message);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Message, DestServerComesFromToAgent) {
  EXPECT_EQ(SampleMessage().dest_server(), ServerId(7));
}

TEST(Message, EmptySubjectAndPayload) {
  Message message;
  message.id = MessageId{ServerId(0), 1};
  ByteWriter writer;
  message.Encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = Message::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), message);
}

TEST(DataFrame, SerializeDeserializeRoundTrip) {
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(4);
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 17}};
  const Bytes bytes = frame.Serialize();
  EXPECT_EQ(bytes.size(), frame.SerializedSize());
  auto decoded = DataFrame::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), frame);
}

TEST(DataFrame, PeekIdentifiesType) {
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(0);
  EXPECT_EQ(PeekFrameType(frame.Serialize()).value(), FrameType::kData);
  EXPECT_EQ(PeekFrameType(AckFrame{MessageId{ServerId(1), 2}}.Serialize())
                .value(),
            FrameType::kAck);
}

TEST(DataFrame, PeekRejectsGarbage) {
  EXPECT_FALSE(PeekFrameType(Bytes{}).ok());
  EXPECT_FALSE(PeekFrameType(Bytes{0x77}).ok());
}

TEST(DataFrame, DeserializeRejectsAckFrame) {
  const Bytes ack = AckFrame{MessageId{ServerId(1), 2}}.Serialize();
  EXPECT_FALSE(DataFrame::Deserialize(ack).ok());
}

TEST(DataFrame, DeserializeRejectsTruncation) {
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(1);
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 17}};
  const Bytes bytes = frame.Serialize();
  for (std::size_t cut = 1; cut < bytes.size(); cut += 3) {
    Bytes truncated(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(DataFrame::Deserialize(truncated).ok()) << "cut " << cut;
  }
}

TEST(DataFrame, IncarnationRoundTripsOnTheWire) {
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(2);
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 4}};
  frame.incarnation = 300;  // multi-byte varint
  const Bytes bytes = frame.Serialize();
  EXPECT_EQ(bytes.size(), frame.SerializedSize());
  auto decoded = DataFrame::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().incarnation, 300u);
  EXPECT_EQ(decoded.value(), frame);
}

TEST(DataFrame, IncarnationIsAlwaysEncoded) {
  // The incarnation varint is mandatory: a frame carrying 0 (which no
  // live server sends) costs the same byte as one carrying 7, and
  // still round-trips.
  DataFrame with;
  with.message = SampleMessage();
  with.domain = DomainId(2);
  with.incarnation = 7;
  DataFrame zero = with;
  zero.incarnation = 0;
  EXPECT_EQ(zero.Serialize().size(), with.Serialize().size());
  auto decoded = DataFrame::Deserialize(zero.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), zero);
}

TEST(DataFrame, EveryProperPrefixFailsToDecode) {
  // A matrix-core frame ends at its incarnation varint.  No prefix may
  // decode -- in particular not the one ending at the stamp, which a
  // decoder that treated the incarnation as optional would accept.
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(1);
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 17}};
  frame.incarnation = 1;
  const Bytes bytes = frame.Serialize();
  ASSERT_TRUE(DataFrame::Deserialize(bytes).ok());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(bytes.data(), cut);
    EXPECT_FALSE(DataFrame::Deserialize(prefix).ok()) << "cut " << cut;
  }
}

TEST(DataFrame, RejectsShapesNoEncoderWrites) {
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(1);
  frame.incarnation = 1;
  const Bytes encoded = frame.Serialize();
  // The incarnation ends the frame: no core tag (0 was the matrix
  // core's, 1 the retired hybrid core's) or any other byte follows it.
  for (std::uint8_t extra : {0, 1, 0x80}) {
    Bytes trailing = encoded;
    trailing.push_back(extra);
    EXPECT_FALSE(DataFrame::Deserialize(trailing).ok()) << int{extra};
  }
}

TEST(AckFrame, RoundTrip) {
  const AckFrame ack{MessageId{ServerId(9), 123456}};
  auto decoded = DeserializeAck(ack.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().messages, ack.messages);
}

TEST(AckFrame, CoalescedRoundTrip) {
  const AckFrame ack{std::vector<MessageId>{MessageId{ServerId(9), 1},
                                            MessageId{ServerId(9), 2},
                                            MessageId{ServerId(3), 77}}};
  auto decoded = DeserializeAck(ack.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().messages, ack.messages);
}

TEST(AckFrame, DeserializeRejectsOverlongCount) {
  // A corrupt count larger than the remaining bytes must be rejected
  // before any allocation proportional to it.
  ByteWriter out;
  out.WriteU8(static_cast<std::uint8_t>(FrameType::kAck));
  out.WriteVarU32(1000000);
  EXPECT_FALSE(DeserializeAck(std::move(out).Take()).ok());
}

TEST(AckFrame, RejectsUnknownFlagsAndTrailingBytes) {
  AckFrame ack(MessageId{ServerId(1), 2});
  Bytes bytes = ack.Serialize();
  ASSERT_EQ(bytes.back(), 0);  // flags byte: no trailers
  Bytes unknown_flag = bytes;
  unknown_flag.back() = 4;
  EXPECT_FALSE(DeserializeAck(unknown_flag).ok());
  bytes.push_back(0);
  EXPECT_FALSE(DeserializeAck(bytes).ok());
}

TEST(AckFrame, DeserializeRejectsDataFrame) {
  DataFrame frame;
  frame.message = SampleMessage();
  frame.domain = DomainId(0);
  EXPECT_FALSE(DeserializeAck(frame.Serialize()).ok());
}

}  // namespace
}  // namespace cmom::mom
