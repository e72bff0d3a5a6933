// Binary serialization primitives.
//
// The paper's scalability argument is about *bytes on the wire*: a flat
// matrix timestamp costs O(n^2) per message while the domain split plus
// the Updates optimization keeps stamps small.  To make those costs
// measurable rather than notional, every message and clock stamp in this
// repo is encoded through this explicit little-endian codec, and the
// transports charge serialization cost per encoded byte.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cmom {

using Bytes = std::vector<std::uint8_t>;

// Pointer-level codec.  An encoder that knows its exact size (a stamp,
// a clock image, a frame, a store record) sums the sizes of its fields,
// extends its buffer once and writes through these; a decode loop over
// many fields (stamp entries, matrix cells) reads through GetVarU64
// without building a Result per field.  ByteWriter and ByteReader are
// the same encoders and decoders, one field at a time.

// Bytes the varint encoding of `v` takes: 1 below 2^7, 10 from 2^63.
// (floor(log2 v) * 9 + 73) / 64 equals floor(log2 v) / 7 + 1 for every
// 64-bit value, with a multiply and a shift instead of a division.
[[nodiscard]] constexpr std::size_t VarU64Size(std::uint64_t v) {
  const auto log2 = static_cast<std::size_t>(std::bit_width(v | 1)) - 1;
  return (log2 * 9 + 73) / 64;
}

// Writes `v` as a LEB128 varint at `p`, which must have VarU64Size(v)
// bytes of room, and returns the byte after it.
inline std::uint8_t* PutVarU64(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

// Writes `v` little-endian at `p` and returns the byte after it.
template <typename T>
inline std::uint8_t* PutLittleEndian(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return p + sizeof(T);
}

// Bytes a length-prefixed string of `n` bytes takes.
[[nodiscard]] constexpr std::size_t LengthPrefixedSize(std::size_t n) {
  return VarU64Size(n) + n;
}

// Writes `n` bytes at `data` behind their varint length.
inline std::uint8_t* PutLengthPrefixed(std::uint8_t* p, const void* data,
                                       std::size_t n) {
  p = PutVarU64(p, n);
  if (n != 0) std::memcpy(p, data, n);
  return p + n;
}

// Out-of-line rest of GetVarU64, for longer varints and every error.
[[nodiscard]] const std::uint8_t* GetVarU64Slow(const std::uint8_t* p,
                                                const std::uint8_t* end,
                                                std::uint64_t& v);

// Reads the varint at `p` (the input ends at `end`) into `v` and
// returns the byte after it, or nullptr when the varint is truncated or
// does not fit 64 bits (an 11th byte, or high bits in the 10th).  One-
// and two-byte varints, the common stamp entries and matrix cells, take
// the inline path.
[[nodiscard]] inline const std::uint8_t* GetVarU64(const std::uint8_t* p,
                                                   const std::uint8_t* end,
                                                   std::uint64_t& v) {
  if (p != end && *p < 0x80) {
    v = *p;
    return p + 1;
  }
  if (end - p >= 2 && p[1] < 0x80) {
    v = (p[0] & 0x7Fu) | (static_cast<std::uint64_t>(p[1]) << 7);
    return p + 2;
  }
  return GetVarU64Slow(p, end, v);
}

// Appends fixed-width and varint-encoded values to a byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buffer_(std::move(initial)) {}

  void WriteU8(std::uint8_t v) { buffer_.push_back(v); }
  void WriteU16(std::uint16_t v) { PutLittleEndian(Extend(sizeof v), v); }
  void WriteU32(std::uint32_t v) { PutLittleEndian(Extend(sizeof v), v); }
  void WriteU64(std::uint64_t v) { PutLittleEndian(Extend(sizeof v), v); }

  // LEB128-style variable-length encoding; small counters (the common
  // case for clock entries) cost one byte.
  void WriteVarU64(std::uint64_t v) { PutVarU64(Extend(VarU64Size(v)), v); }
  void WriteVarU32(std::uint32_t v) { WriteVarU64(v); }

  void WriteBytes(std::span<const std::uint8_t> data) {
    PutLengthPrefixed(Extend(LengthPrefixedSize(data.size())), data.data(),
                      data.size());
  }
  void WriteString(std::string_view s) {
    PutLengthPrefixed(Extend(LengthPrefixedSize(s.size())), s.data(),
                      s.size());
  }

  // Grows the buffer by `n` bytes and returns the first of them, for
  // an encoder that writes a field group of known size through the
  // Put* functions above.
  [[nodiscard]] std::uint8_t* Extend(std::size_t n);

  // Pre-grows capacity for `additional` more bytes, for a record built
  // field by field whose size is known up front.
  void Reserve(std::size_t additional) {
    buffer_.reserve(buffer_.size() + additional);
  }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] const Bytes& buffer() const { return buffer_; }
  [[nodiscard]] Bytes Take() && { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

// Reads values written by ByteWriter.  All reads are bounds-checked and
// report kDataLoss on truncated input instead of crashing: transports
// hand us bytes that may have been corrupted by fault injection.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> ReadU8() {
    return ReadLittleEndian<std::uint8_t>();
  }
  [[nodiscard]] Result<std::uint16_t> ReadU16() {
    return ReadLittleEndian<std::uint16_t>();
  }
  [[nodiscard]] Result<std::uint32_t> ReadU32() {
    return ReadLittleEndian<std::uint32_t>();
  }
  [[nodiscard]] Result<std::uint64_t> ReadU64() {
    return ReadLittleEndian<std::uint64_t>();
  }
  [[nodiscard]] Result<std::uint64_t> ReadVarU64() {
    std::uint64_t v = 0;
    const std::uint8_t* next = GetVarU64(cursor(), end(), v);
    if (next == nullptr) return BadVarint();
    SkipTo(next);
    return v;
  }
  [[nodiscard]] Result<std::uint32_t> ReadVarU32();
  [[nodiscard]] Result<Bytes> ReadBytes();
  // ReadBytes into a buffer recycled from the calling thread's
  // BufferPool freelist (common/buffer_pool.h) -- decode paths on the
  // frame hot path use this so payload allocations amortize to zero.
  [[nodiscard]] Result<Bytes> ReadBytesPooled();
  [[nodiscard]] Result<std::string> ReadString();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

  // The unread input as [cursor(), end()), and SkipTo to consume a
  // prefix of it: pointer-level decode loops read there with GetVarU64
  // and then skip to the first byte they did not read.
  [[nodiscard]] const std::uint8_t* cursor() const {
    return data_.data() + pos_;
  }
  [[nodiscard]] const std::uint8_t* end() const {
    return data_.data() + data_.size();
  }
  void SkipTo(const std::uint8_t* next) {
    assert(next >= cursor() && next <= end());
    pos_ = static_cast<std::size_t>(next - data_.data());
  }

 private:
  template <typename T>
  [[nodiscard]] Result<T> ReadLittleEndian() {
    if (remaining() < sizeof(T)) return Truncated();
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }
  // The validated length of a length-prefixed field, whose bytes start
  // at cursor() on success.
  [[nodiscard]] Result<std::size_t> ReadLength();
  [[nodiscard]] static Status Truncated();
  [[nodiscard]] static Status BadVarint();

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cmom
