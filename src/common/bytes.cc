#include "common/bytes.h"

#include "common/buffer_pool.h"

namespace cmom {

// Out of line on purpose: inlined into a caller, GCC 12's range
// analysis of vector::resize reports false -Wstringop-overflow errors.
std::uint8_t* ByteWriter::Extend(std::size_t n) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + n);
  return buffer_.data() + at;
}

const std::uint8_t* GetVarU64Slow(const std::uint8_t* p,
                                  const std::uint8_t* end, std::uint64_t& v) {
  std::uint64_t value = 0;
  int shift = 0;
  while (p != end) {
    const std::uint8_t byte = *p++;
    if (shift >= 64 || (shift == 63 && (byte & 0x7E) != 0)) return nullptr;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      v = value;
      return p;
    }
    shift += 7;
  }
  return nullptr;  // truncated
}

Status ByteReader::Truncated() {
  return Status::DataLoss("truncated fixed-width field");
}

Status ByteReader::BadVarint() {
  return Status::DataLoss("truncated varint or varint overflows 64 bits");
}

Result<std::uint32_t> ByteReader::ReadVarU32() {
  auto v = ReadVarU64();
  if (!v.ok()) return v.status();
  if (v.value() > 0xFFFFFFFFull) {
    return Status::DataLoss("varint exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v.value());
}

Result<std::size_t> ByteReader::ReadLength() {
  auto len = ReadVarU64();
  if (!len.ok()) return len.status();
  if (remaining() < len.value()) {
    return Status::DataLoss("truncated byte string");
  }
  return static_cast<std::size_t>(len.value());
}

Result<Bytes> ByteReader::ReadBytes() {
  auto len = ReadLength();
  if (!len.ok()) return len.status();
  Bytes out(cursor(), cursor() + len.value());
  pos_ += len.value();
  return out;
}

Result<Bytes> ByteReader::ReadBytesPooled() {
  auto len = ReadLength();
  if (!len.ok()) return len.status();
  Bytes out = BufferPool::Acquire(len.value());
  out.assign(cursor(), cursor() + len.value());
  pos_ += len.value();
  return out;
}

Result<std::string> ByteReader::ReadString() {
  auto len = ReadLength();
  if (!len.ok()) return len.status();
  std::string out(reinterpret_cast<const char*>(cursor()), len.value());
  pos_ += len.value();
  return out;
}

}  // namespace cmom
