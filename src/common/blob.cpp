#include "common/blob.hpp"

namespace vcdl {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

void BinaryWriter::write_varint(std::uint64_t value) {
  while (value >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(value));
}

void BinaryWriter::write_string(std::string_view s) {
  write_varint(s.size());
  append(s.data(), s.size());
}

void BinaryWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  write_varint(bytes.size());
  append(bytes.data(), bytes.size());
}

void BinaryReader::throw_truncated(std::size_t n) const {
  throw CorruptData("BinaryReader: truncated input (need " +
                    std::to_string(n) + " bytes, have " +
                    std::to_string(bytes_.size() - pos_) + ")");
}

std::uint64_t BinaryReader::read_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    require(1);
    const std::uint8_t byte = bytes_[pos_++];
    if (shift >= 64) throw CorruptData("BinaryReader: varint overflow");
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::string BinaryReader::read_string() {
  const auto n = read_varint();
  require(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> BinaryReader::read_bytes() {
  const auto n = read_varint();
  require(n);
  std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace vcdl
