#include "common/blob.hpp"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace vcdl {
namespace {

TEST(Blob, DefaultIsEmpty) {
  Blob b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
}

TEST(Blob, EqualityComparesBytes) {
  const Blob a(std::vector<std::uint8_t>{1, 2, 3});
  const Blob b(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == Blob(std::vector<std::uint8_t>{1, 2, 3, 1, 2, 3}));
  EXPECT_FALSE(a == Blob());
}

TEST(Blob, HashStableAndContentSensitive) {
  Blob a(std::vector<std::uint8_t>{1, 2, 3});
  Blob b(std::vector<std::uint8_t>{1, 2, 3});
  Blob c(std::vector<std::uint8_t>{1, 2, 4});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

TEST(BinaryWriter, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.write<std::uint32_t>(0xDEADBEEF);
  w.write<double>(3.5);
  w.write<std::int8_t>(-5);
  const Blob blob = [&]() mutable { return w.take(); }();
  BinaryReader r(blob);
  EXPECT_EQ(r.read<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.5);
  EXPECT_EQ(r.read<std::int8_t>(), -5);
  EXPECT_TRUE(r.done());
}

TEST(BinaryWriter, VarintEdgeCases) {
  BinaryWriter w;
  const std::uint64_t values[] = {0,   1,    127,  128,
                                  300, 16383, 16384,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const auto v : values) w.write_varint(v);
  const Blob blob = w.take();
  BinaryReader r(blob);
  for (const auto v : values) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(BinaryWriter, VarintSmallValuesAreOneByte) {
  BinaryWriter w;
  w.write_varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.write_varint(128);
  EXPECT_EQ(w.size(), 3u);  // second value takes two bytes
}

TEST(BinaryWriter, StringRoundTrip) {
  BinaryWriter w;
  w.write_string("");
  w.write_string("hello");
  w.write_string(std::string(1000, 'x'));
  const Blob blob = w.take();
  BinaryReader r(blob);
  EXPECT_EQ(r.read_string(), "");
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_string(), std::string(1000, 'x'));
}

TEST(BinaryWriter, SpanRoundTrip) {
  BinaryWriter w;
  const std::vector<float> values = {1.0f, -2.5f, 3.25f};
  w.write_span(std::span<const float>(values));
  const Blob blob = w.take();
  BinaryReader r(blob);
  EXPECT_EQ(r.read_vector<float>(), values);
}

TEST(BinaryWriter, BytesRoundTrip) {
  BinaryWriter w;
  const std::vector<std::uint8_t> payload = {0, 255, 7, 42};
  w.write_bytes(payload);
  const Blob blob = w.take();
  BinaryReader r(blob);
  EXPECT_EQ(r.read_bytes(), payload);
}

TEST(BinaryReader, TruncatedPrimitiveThrows) {
  Blob blob(std::vector<std::uint8_t>{1, 2});
  BinaryReader r(blob);
  EXPECT_THROW(r.read<std::uint32_t>(), CorruptData);
}

TEST(BinaryReader, TruncatedStringThrows) {
  BinaryWriter w;
  w.write_varint(100);  // claims 100 bytes, provides none
  const Blob blob = w.take();
  BinaryReader r(blob);
  EXPECT_THROW(r.read_string(), CorruptData);
}

TEST(BinaryReader, TruncatedVectorThrows) {
  BinaryWriter w;
  w.write_varint(1000);
  w.write<float>(1.0f);
  const Blob blob = w.take();
  BinaryReader r(blob);
  EXPECT_THROW(r.read_vector<float>(), CorruptData);
}

TEST(BinaryReader, OverlongVarintThrows) {
  // 11 continuation bytes exceed 64 bits of payload.
  Blob blob(std::vector<std::uint8_t>(11, 0x80));
  BinaryReader r(blob);
  EXPECT_THROW(r.read_varint(), CorruptData);
}

TEST(BinaryReader, RemainingTracksPosition) {
  BinaryWriter w;
  w.write<std::uint16_t>(1);
  w.write<std::uint16_t>(2);
  const Blob blob = w.take();
  BinaryReader r(blob);
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.read<std::uint16_t>();
  EXPECT_EQ(r.remaining(), 2u);
  (void)r.read<std::uint16_t>();
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace vcdl
