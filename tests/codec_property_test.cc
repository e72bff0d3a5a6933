// Property tests for the hot-path codec: random stamps, matrix clocks,
// clock images, data frames and ack frames are encoded and compared
// byte for byte with a byte-at-a-time reference encoder kept here, their
// computed sizes are checked against the encoded length, they decode
// back to themselves, and every strict prefix of an encoding, an
// 11-byte varint and a coordinate above 16 bits decode to kDataLoss.
//
// Seeded; the seed is printed and CMOM_SEED=<n> replays a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clocks/causal_core.h"
#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/seed.h"
#include "mom/message.h"

namespace cmom {
namespace {

using clocks::MatrixClock;
using clocks::MatrixClockCore;
using clocks::Stamp;
using clocks::StampEntry;

// ---------------------------------------------------------------------
// Reference encoder: one field and one byte at a time, with no size
// computed ahead.  The codec must write exactly these bytes.
// ---------------------------------------------------------------------

void RefVarU64(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void RefU16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void RefLengthPrefixed(Bytes& out, std::span<const std::uint8_t> data) {
  RefVarU64(out, data.size());
  out.insert(out.end(), data.begin(), data.end());
}

void RefStamp(Bytes& out, const Stamp& stamp) {
  RefVarU64(out, stamp.entries.size());
  for (const StampEntry& e : stamp.entries) {
    RefVarU64(out, e.row.value());
    RefVarU64(out, e.col.value());
    RefVarU64(out, e.value);
  }
}

void RefMatrix(Bytes& out, std::size_t size,
               const std::vector<std::uint64_t>& cells) {
  RefVarU64(out, size);
  for (std::uint64_t cell : cells) RefVarU64(out, cell);
}

void RefMessage(Bytes& out, const mom::Message& m) {
  RefU16(out, m.id.origin.value());
  RefVarU64(out, m.id.seq);
  RefU16(out, m.from.server.value());
  RefVarU64(out, m.from.local);
  RefU16(out, m.to.server.value());
  RefVarU64(out, m.to.local);
  RefLengthPrefixed(out, std::span(reinterpret_cast<const std::uint8_t*>(
                                       m.subject.data()),
                                   m.subject.size()));
  RefLengthPrefixed(out, m.payload);
}

Bytes RefDataFrame(const mom::DataFrame& f) {
  Bytes out{static_cast<std::uint8_t>(mom::FrameType::kData)};
  RefMessage(out, f.message);
  RefU16(out, f.domain.value());
  RefVarU64(out, f.epoch);
  RefStamp(out, f.stamp);
  RefVarU64(out, f.incarnation);
  return out;
}

Bytes RefAckFrame(const mom::AckFrame& a) {
  Bytes out{static_cast<std::uint8_t>(mom::FrameType::kAck)};
  RefVarU64(out, a.messages.size());
  for (const MessageId& id : a.messages) {
    RefU16(out, id.origin.value());
    RefVarU64(out, id.seq);
  }
  out.push_back(static_cast<std::uint8_t>((a.has_credit ? 1 : 0) |
                                          (a.has_session ? 2 : 0)));
  if (a.has_credit) RefVarU64(out, a.credit);
  if (a.has_session) {
    RefVarU64(out, a.session);
    RefVarU64(out, a.echo);
    RefVarU64(out, a.accepted);
  }
  return out;
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  // A value whose varint takes exactly `length` bytes (1..10); the
  // edges of each length (2^63 and UINT64_MAX for 10) are drawn more
  // often than their interior.
  std::uint64_t WithVarintLength(int length) {
    const std::uint64_t lo =
        length == 1 ? 0 : std::uint64_t{1} << (7 * (length - 1));
    const std::uint64_t hi = length == 10
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (7 * length)) - 1;
    switch (rng_.NextBelow(4)) {
      case 0: return lo;
      case 1: return hi;
      default: return lo + rng_.NextBelow(hi - lo + 1);
    }
  }
  // Any varint length, 1 to 10 bytes.
  std::uint64_t Value() {
    return WithVarintLength(1 + static_cast<int>(rng_.NextBelow(10)));
  }
  // A value whose varint is at most `max_length` bytes, capped at `cap`.
  std::uint64_t ValueUpTo(int max_length, std::uint64_t cap) {
    const int length = 1 + static_cast<int>(rng_.NextBelow(
                               static_cast<std::uint64_t>(max_length)));
    return std::min(WithVarintLength(length), cap);
  }
  // A domain-local coordinate, 0..0xFFFF (1 to 3 varint bytes).
  DomainServerId Coordinate() {
    return DomainServerId(static_cast<std::uint16_t>(ValueUpTo(3, 0xFFFF)));
  }
  ServerId Server() {
    return ServerId(static_cast<std::uint16_t>(rng_.NextU64()));
  }
  AgentId Agent() {
    return AgentId{Server(),
                   static_cast<std::uint32_t>(ValueUpTo(5, 0xFFFFFFFF))};
  }

  Stamp RandomStamp() {
    Stamp stamp;
    stamp.entries.resize(rng_.NextBelow(301));
    for (StampEntry& e : stamp.entries) {
      e = StampEntry{Coordinate(), Coordinate(), Value()};
    }
    return stamp;
  }

  std::vector<std::uint64_t> Cells(std::size_t size) {
    std::vector<std::uint64_t> cells(size * size);
    for (std::uint64_t& cell : cells) cell = Value();
    return cells;
  }

  Bytes RandomBytes(std::size_t max) {
    Bytes out(rng_.NextBelow(max + 1));
    for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng_.NextU64());
    return out;
  }

  mom::DataFrame RandomFrame() {
    mom::DataFrame frame;
    frame.message.id = MessageId{Server(), Value()};
    frame.message.from = Agent();
    frame.message.to = Agent();
    const Bytes subject = RandomBytes(40);
    frame.message.subject.assign(subject.begin(), subject.end());
    frame.message.payload = RandomBytes(300);
    frame.domain = DomainId(static_cast<std::uint16_t>(rng_.NextU64()));
    frame.epoch = Value();
    frame.stamp = RandomStamp();
    frame.incarnation = Value();
    return frame;
  }

  mom::AckFrame RandomAck() {
    mom::AckFrame ack;
    ack.messages.resize(rng_.NextBelow(40));
    for (MessageId& id : ack.messages) {
      id = MessageId{Server(), Value()};
    }
    ack.has_credit = rng_.NextBool(0.5);
    if (ack.has_credit) ack.credit = Value();
    ack.has_session = rng_.NextBool(0.5);
    if (ack.has_session) {
      ack.session = Value();
      ack.echo = Value();
      ack.accepted = Value();
    }
    return ack;
  }

 private:
  Rng rng_;
};

std::uint64_t Seed() {
  static const std::uint64_t seed = SeedFromEnv(20261019, "codec_property");
  return seed;
}

Result<Stamp> DecodeStamp(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  auto stamp = Stamp::Decode(in);
  if (stamp.ok() && !in.exhausted()) return Status::Internal("not exhausted");
  return stamp;
}

Result<MatrixClock> DecodeMatrix(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  auto matrix = MatrixClock::Decode(in);
  if (matrix.ok() && !in.exhausted()) return Status::Internal("not exhausted");
  return matrix;
}

// Every strict prefix of `bytes` fails `decode` with kDataLoss.
template <typename Decode>
void ExpectEveryStrictPrefixIsDataLoss(const Bytes& bytes, Decode decode) {
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Status status = decode(std::span(bytes.data(), cut)).status();
    ASSERT_EQ(status.code(), StatusCode::kDataLoss)
        << "prefix of " << cut << " of " << bytes.size();
  }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

TEST(CodecProperty, VarintSizeMatchesTheReferenceAtEveryLength) {
  Gen gen(Seed());
  for (int length = 1; length <= 10; ++length) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t v = gen.WithVarintLength(length);
      Bytes expected;
      RefVarU64(expected, v);
      ASSERT_EQ(expected.size(), static_cast<std::size_t>(length)) << v;
      ASSERT_EQ(VarU64Size(v), expected.size()) << v;
      ByteWriter writer;
      writer.WriteVarU64(v);
      ASSERT_EQ(writer.buffer(), expected) << v;
      ByteReader reader(expected);
      ASSERT_EQ(reader.ReadVarU64().value(), v);
      ASSERT_TRUE(reader.exhausted());
    }
  }
  EXPECT_EQ(VarU64Size(std::uint64_t{1} << 63), 10u);
  EXPECT_EQ(VarU64Size(~std::uint64_t{0}), 10u);
}

TEST(CodecProperty, StampsMatchTheReferenceEncoder) {
  Gen gen(Seed());
  for (int i = 0; i < 200; ++i) {
    const Stamp stamp = gen.RandomStamp();
    Bytes expected;
    RefStamp(expected, stamp);
    ByteWriter writer;
    stamp.Encode(writer);
    ASSERT_EQ(writer.buffer(), expected) << "stamp " << i;
    ASSERT_EQ(stamp.EncodedSize(), expected.size()) << "stamp " << i;
    auto decoded = DecodeStamp(expected);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded.value(), stamp);
    ExpectEveryStrictPrefixIsDataLoss(expected, DecodeStamp);
  }
}

TEST(CodecProperty, MatricesAndClockImagesMatchTheReferenceEncoder) {
  Gen gen(Seed());
  for (std::size_t size : {1u, 2u, 16u, 64u}) {
    // Every prefix of a 64-wide image decodes up to ~20 KB; one will do.
    for (int i = 0; i < (size == 64 ? 1 : 4); ++i) {
      const std::vector<std::uint64_t> cells = gen.Cells(size);
      Bytes matrix_bytes;
      RefMatrix(matrix_bytes, size, cells);
      auto matrix = DecodeMatrix(matrix_bytes);
      ASSERT_TRUE(matrix.ok()) << matrix.status();
      ASSERT_EQ(matrix.value().size(), size);
      for (std::uint16_t r = 0; r < size; ++r) {
        for (std::uint16_t c = 0; c < size; ++c) {
          ASSERT_EQ(matrix.value().at(DomainServerId(r), DomainServerId(c)),
                    cells[r * size + c]);
        }
      }
      ByteWriter writer;
      matrix.value().Encode(writer);
      ASSERT_EQ(writer.buffer(), matrix_bytes) << "s=" << size;
      ASSERT_EQ(matrix.value().EncodedSize(), matrix_bytes.size());
      ExpectEveryStrictPrefixIsDataLoss(matrix_bytes, DecodeMatrix);

      // The clk/ image around it: kind 0, u16 self, mode, matrix.
      const auto self = static_cast<std::uint16_t>(size - 1);
      const auto mode = static_cast<std::uint8_t>(i % 2);
      Bytes image{MatrixClockCore::kImageKind};
      RefU16(image, self);
      image.push_back(mode);
      image.insert(image.end(), matrix_bytes.begin(), matrix_bytes.end());
      auto core = MatrixClockCore::Decode(image);
      ASSERT_TRUE(core.ok()) << core.status();
      ByteWriter core_writer;
      core.value().EncodeState(core_writer);
      ASSERT_EQ(core_writer.buffer(), image) << "s=" << size;
      ASSERT_EQ(core.value().EncodedStateSize(), image.size());
      ExpectEveryStrictPrefixIsDataLoss(
          image, [](std::span<const std::uint8_t> bytes) {
            return MatrixClockCore::Decode(bytes);
          });
    }
  }
}

TEST(CodecProperty, DataFramesMatchTheReferenceEncoder) {
  Gen gen(Seed());
  for (int i = 0; i < 100; ++i) {
    const mom::DataFrame frame = gen.RandomFrame();
    const Bytes expected = RefDataFrame(frame);
    const Bytes bytes = frame.Serialize();
    ASSERT_EQ(bytes, expected) << "frame " << i;
    ASSERT_EQ(frame.SerializedSize(), expected.size());
    ByteWriter message_writer;
    frame.message.Encode(message_writer);
    ASSERT_EQ(frame.message.EncodedSize(), message_writer.size());
    auto decoded = mom::DataFrame::Deserialize(expected);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded.value(), frame);
    ExpectEveryStrictPrefixIsDataLoss(
        expected, [](std::span<const std::uint8_t> prefix) {
          return mom::DataFrame::Deserialize(prefix);
        });
  }
}

TEST(CodecProperty, AckFramesMatchTheReferenceEncoder) {
  Gen gen(Seed());
  for (int i = 0; i < 200; ++i) {
    const mom::AckFrame ack = gen.RandomAck();
    const Bytes expected = RefAckFrame(ack);
    ASSERT_EQ(ack.Serialize(), expected) << "ack " << i;
    auto decoded = mom::DeserializeAck(expected);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded.value(), ack);
    ExpectEveryStrictPrefixIsDataLoss(expected, mom::DeserializeAck);
  }
}

// An 11-byte varint, or a 10th byte with more than the 64th bit, in any
// varint position: a stamp count, entry value, matrix cell, frame epoch.
TEST(CodecProperty, OverlongVarintsAreDataLoss) {
  const Bytes eleven = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                        0x80, 0x80, 0x80, 0x80, 0x00};
  const Bytes high_tenth = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                            0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  for (const Bytes& bad : {eleven, high_tenth}) {
    ByteReader reader(bad);
    EXPECT_EQ(reader.ReadVarU64().status().code(), StatusCode::kDataLoss);

    EXPECT_EQ(DecodeStamp(bad).status().code(), StatusCode::kDataLoss);

    Bytes entry_value = {0x01, 0x00, 0x00};
    entry_value.insert(entry_value.end(), bad.begin(), bad.end());
    EXPECT_EQ(DecodeStamp(entry_value).status().code(), StatusCode::kDataLoss);

    Bytes cell = {0x01};
    cell.insert(cell.end(), bad.begin(), bad.end());
    EXPECT_EQ(DecodeMatrix(cell).status().code(), StatusCode::kDataLoss);

    mom::DataFrame frame;
    frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 1}};
    Bytes wire = RefDataFrame(frame);
    // The epoch is the one-byte varint just before the stamp.
    const auto epoch_at = static_cast<std::ptrdiff_t>(
        wire.size() - 1 - frame.stamp.EncodedSize() - 1);
    ASSERT_EQ(wire[static_cast<std::size_t>(epoch_at)], 0x00);
    wire.erase(wire.begin() + epoch_at);
    wire.insert(wire.begin() + epoch_at, bad.begin(), bad.end());
    EXPECT_EQ(mom::DataFrame::Deserialize(wire).status().code(),
              StatusCode::kDataLoss);
  }
}

// A row or col above 0xFFFF is corruption, whatever its varint length.
TEST(CodecProperty, CoordinatesAbove16BitsAreDataLoss) {
  Gen gen(Seed());
  for (int i = 0; i < 200; ++i) {
    std::uint64_t wide = 0;
    while (wide <= 0xFFFF) wide = gen.Value();
    const bool in_row = i % 2 == 0;
    Bytes bytes;
    RefVarU64(bytes, 1);
    RefVarU64(bytes, in_row ? wide : 1);
    RefVarU64(bytes, in_row ? 1 : wide);
    RefVarU64(bytes, gen.Value());
    ASSERT_EQ(DecodeStamp(bytes).status().code(), StatusCode::kDataLoss)
        << (in_row ? "row " : "col ") << wide;
  }
}

}  // namespace
}  // namespace cmom
