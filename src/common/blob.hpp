// Byte-buffer and binary archive primitives.
//
// A `Blob` is the unit of everything that moves through the system: model
// parameter files (the paper's 21.2 MB .h5 analogue), data shards (.npz
// analogue), model architecture files, and store values. `BinaryWriter` /
// `BinaryReader` provide a compact, versioned, little-endian archive format
// with bounds-checked reads (a truncated or corrupt blob throws CorruptData,
// it never reads out of bounds).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace vcdl {

/// FNV-1a's offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ull;

/// 64-bit FNV-1a over `bytes`, continuing from `seed`. The one hash behind
/// Blob::hash, params_hash, the trace digest and the metrics fingerprint.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t seed = kFnvOffsetBasis);
inline std::uint64_t fnv1a(std::string_view chars,
                           std::uint64_t seed = kFnvOffsetBasis) {
  return fnv1a({reinterpret_cast<const std::uint8_t*>(chars.data()),
                chars.size()},
               seed);
}

namespace detail {
// resize + memcpy, not insert(end, p, p + n): inlined into the first append
// to an empty vector, GCC 12 reports insert as a -Wstringop-overflow into a
// region of size 0. An empty run copies nothing (its pointer may be null).
inline void append_bytes(std::vector<std::uint8_t>& buf, const void* p,
                         std::size_t n) {
  if (n == 0) return;
  const std::size_t at = buf.size();
  buf.resize(at + n);
  std::memcpy(buf.data() + at, p, n);
}
}  // namespace detail

/// Owning, contiguous byte buffer.
class Blob {
 public:
  Blob() = default;
  explicit Blob(std::size_t size) : bytes_(size) {}
  explicit Blob(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::uint8_t* data() { return bytes_.data(); }
  std::span<const std::uint8_t> view() const { return {bytes_}; }
  void resize(std::size_t n) { bytes_.resize(n); }
  void clear() { bytes_.clear(); }
  void append(std::span<const std::uint8_t> bytes) {
    detail::append_bytes(bytes_, bytes.data(), bytes.size());
  }

  /// Stable 64-bit content hash (FNV-1a); used for cache keys and dedup.
  std::uint64_t hash() const { return fnv1a(view()); }

  friend bool operator==(const Blob& a, const Blob& b) {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Appends primitives to a growing byte vector in little-endian order.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    append(&value, sizeof(T));
  }

  /// LEB128-style variable-length unsigned integer.
  void write_varint(std::uint64_t value);
  void write_string(std::string_view s);
  void write_bytes(std::span<const std::uint8_t> bytes);

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(std::span<const T> values) {
    write_varint(values.size());
    append(values.data(), values.size_bytes());
  }

  std::size_t size() const { return buf_.size(); }
  Blob take() { return Blob(std::move(buf_)); }

 private:
  void append(const void* p, std::size_t n) {
    detail::append_bytes(buf_, p, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span. Does not own the bytes.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  explicit BinaryReader(const Blob& blob) : bytes_(blob.view()) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::uint64_t read_varint();
  std::string read_string();
  std::vector<std::uint8_t> read_bytes();

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read_varint();
    require(n * sizeof(T));
    std::vector<T> out(n);
    std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

 private:
  void require(std::size_t n) const {
    if (n > bytes_.size() - pos_) throw_truncated(n);
  }
  // Out of line: an inline string-building throw makes GCC 12 report a
  // -Warray-bounds false positive on the memcpy after a failed check.
  [[noreturn]] void throw_truncated(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace vcdl
