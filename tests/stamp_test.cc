// Unit tests for causal stamps and their codec.
#include "clocks/stamp.h"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

Stamp SampleStamp() {
  Stamp stamp;
  stamp.entries = {{D(0), D(1), 7}, {D(1), D(1), 3}, {D(2), D(0), 123456}};
  return stamp;
}

TEST(Stamp, FindLocatesEntries) {
  const Stamp stamp = SampleStamp();
  ASSERT_NE(stamp.Find(D(1), D(1)), nullptr);
  EXPECT_EQ(stamp.Find(D(1), D(1))->value, 3u);
  EXPECT_EQ(stamp.Find(D(1), D(0)), nullptr);
  EXPECT_EQ(stamp.Find(D(9), D(9)), nullptr);
}

TEST(Stamp, CodecRoundTrip) {
  const Stamp stamp = SampleStamp();
  ByteWriter writer;
  stamp.Encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = Stamp::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), stamp);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Stamp, EmptyStampRoundTrip) {
  Stamp stamp;
  ByteWriter writer;
  stamp.Encode(writer);
  EXPECT_EQ(writer.size(), 1u);  // just the zero count
  ByteReader reader(writer.buffer());
  auto decoded = Stamp::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().entries.empty());
}

TEST(Stamp, EncodedSizeMatchesEncode) {
  const Stamp stamp = SampleStamp();
  ByteWriter writer;
  stamp.Encode(writer);
  EXPECT_EQ(stamp.EncodedSize(), writer.size());
}

TEST(Stamp, SmallEntriesEncodeCompactly) {
  // One entry with tiny values: 1 count + 1 row + 1 col + 1 value.
  Stamp stamp;
  stamp.entries = {{D(1), D(2), 5}};
  EXPECT_EQ(stamp.EncodedSize(), 4u);
}

TEST(Stamp, DecodeTruncatedFails) {
  const Stamp stamp = SampleStamp();
  ByteWriter writer;
  stamp.Encode(writer);
  for (std::size_t cut = 1; cut < writer.size(); cut += 2) {
    Bytes truncated(writer.buffer().begin(),
                    writer.buffer().begin() + static_cast<long>(cut));
    ByteReader reader(truncated);
    EXPECT_FALSE(Stamp::Decode(reader).ok()) << "cut at " << cut;
  }
}

// Domain-local ids are 16-bit: a row or col varint above 0xFFFF is
// corruption, not an id to truncate (0x10001 used to read as 1).
TEST(Stamp, DecodeRejectsCoordinatesAbove16Bits) {
  for (const auto& [row, col] :
       {std::pair<std::uint32_t, std::uint32_t>{0x10001, 1}, {1, 0x10000}}) {
    ByteWriter writer;
    writer.WriteVarU64(1);
    writer.WriteVarU32(row);
    writer.WriteVarU32(col);
    writer.WriteVarU64(5);
    ByteReader reader(writer.buffer());
    auto decoded = Stamp::Decode(reader);
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << row << "," << col;
  }
  ByteWriter widest;
  widest.WriteVarU64(1);
  widest.WriteVarU32(0xFFFF);
  widest.WriteVarU32(0xFFFF);
  widest.WriteVarU64(5);
  ByteReader reader(widest.buffer());
  auto decoded = Stamp::Decode(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().entries[0].row, D(0xFFFF));
}

TEST(Stamp, StreamsReadably) {
  Stamp stamp;
  stamp.entries = {{D(0), D(1), 7}};
  std::ostringstream out;
  out << stamp;
  EXPECT_EQ(out.str(), "{(0,1)=7}");
}

}  // namespace
}  // namespace cmom::clocks
