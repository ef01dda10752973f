#include "common/varint.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace jxp {
namespace {

TEST(VByteTest, RoundTripsBoundaryValues) {
  // Back-to-back values through the trusted (unchecked) scalar decoder.
  const uint32_t values[] = {0,      1,        127,        128,       16383, 16384,
                             999999, 0xffffffu, 0x0fffffffu, 0xffffffffu};
  std::vector<uint8_t> bytes;
  for (uint32_t v : values) VByteEncode32(v, bytes);
  size_t offset = 0;
  for (uint32_t v : values) {
    EXPECT_EQ(VByteDecode32(bytes.data(), offset), v);
  }
  EXPECT_EQ(offset, bytes.size());
}

TEST(VByteTest, SmallValuesAreOneByte) {
  std::vector<uint8_t> bytes;
  VByteEncode32(127, bytes);
  EXPECT_EQ(bytes.size(), 1u);
  VByteEncode32(128, bytes);
  EXPECT_EQ(bytes.size(), 3u);  // 127 took one byte; 128 takes two.
}

TEST(UpperBoundFloatTest, NeverRoundsBelow) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble() * std::pow(10.0, static_cast<int>(rng.NextBounded(25)) - 12);
    const float f = UpperBoundFloat(v);
    EXPECT_GE(static_cast<double>(f), v);
  }
  EXPECT_EQ(UpperBoundFloat(0.0), 0.0f);
  EXPECT_EQ(UpperBoundFloat(1.0), 1.0f);  // Exactly representable.
}

TEST(VarintCheckedTest, RoundTrips32) {
  const uint32_t values[] = {0,      1,        0x7fu,      0x80u,
                             0x3fffu, 0x4000u, 0x1fffffu,  0xffffffu,
                             1u << 28, std::numeric_limits<uint32_t>::max()};
  for (uint32_t v : values) {
    std::vector<uint8_t> bytes;
    VByteEncode32(v, bytes);
    size_t offset = 0;
    uint32_t decoded = 0;
    ASSERT_TRUE(VByteDecode32Checked(bytes.data(), bytes.size(), offset, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(offset, bytes.size());
  }
}

TEST(VarintCheckedTest, RejectsTruncatedInput) {
  // Every proper prefix of a multi-byte encoding must fail and leave the
  // offset untouched (truncation surfaces as an error, never as a read past
  // the buffer).
  std::vector<uint8_t> bytes;
  VByteEncode32(std::numeric_limits<uint32_t>::max(), bytes);
  ASSERT_EQ(bytes.size(), 5u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    size_t offset = 0;
    uint32_t value = 0;
    EXPECT_FALSE(VByteDecode32Checked(bytes.data(), len, offset, &value)) << len;
    EXPECT_EQ(offset, 0u);
  }
  size_t offset = 0;
  uint64_t value64 = 0;
  EXPECT_FALSE(VByteDecode64Checked(bytes.data(), 0, offset, &value64));
}

TEST(VarintCheckedTest, RejectsOverlongEncodings) {
  // 6 continuation bytes overflow the 32-bit value space outright.
  const uint8_t too_long[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  size_t offset = 0;
  uint32_t value = 0;
  EXPECT_FALSE(VByteDecode32Checked(too_long, sizeof(too_long), offset, &value));
  EXPECT_EQ(offset, 0u);

  // A 5-byte encoding whose final byte carries more than 4 data bits would
  // silently drop the high bits in the unchecked decoder.
  const uint8_t overflow_final[] = {0xff, 0xff, 0xff, 0xff, 0x1f};
  offset = 0;
  EXPECT_FALSE(
      VByteDecode32Checked(overflow_final, sizeof(overflow_final), offset, &value));
  EXPECT_EQ(offset, 0u);

  // The same boundary for 64-bit: byte 10 may only carry the topmost bit.
  const uint8_t overflow_final64[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                      0xff, 0xff, 0xff, 0xff, 0x03};
  offset = 0;
  uint64_t value64 = 0;
  EXPECT_FALSE(VByteDecode64Checked(overflow_final64, sizeof(overflow_final64), offset,
                                    &value64));
  EXPECT_EQ(offset, 0u);

  // The widest legal encodings still decode.
  const uint8_t max32[] = {0xff, 0xff, 0xff, 0xff, 0x0f};
  offset = 0;
  ASSERT_TRUE(VByteDecode32Checked(max32, sizeof(max32), offset, &value));
  EXPECT_EQ(value, std::numeric_limits<uint32_t>::max());
  const uint8_t max64[] = {0xff, 0xff, 0xff, 0xff, 0xff,
                           0xff, 0xff, 0xff, 0xff, 0x01};
  offset = 0;
  ASSERT_TRUE(VByteDecode64Checked(max64, sizeof(max64), offset, &value64));
  EXPECT_EQ(value64, std::numeric_limits<uint64_t>::max());
}

TEST(VarintArrayTest, DecodesMixedWidthsAcrossWideWindows) {
  // Interleave 1-byte and multi-byte values so the decoder flips between the
  // 8-wide fast path and the checked scalar fallback.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 100; ++i) {
    values.push_back(i % 17 == 0 ? 0x12345u + i : i % 0x80u);
  }
  std::vector<uint8_t> bytes;
  for (uint32_t v : values) VByteEncode32(v, bytes);

  std::vector<uint32_t> decoded(values.size());
  size_t offset = 0;
  ASSERT_TRUE(VByteDecodeArray32(bytes.data(), bytes.size(), offset, values.size(),
                                 decoded.data()));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(decoded, values);
}

TEST(VarintArrayTest, AgreesWithScalarDecoderOnAllSmallValues) {
  // All-small input exercises the pure wide path plus the < 8 remainder.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 83; ++i) values.push_back(i % 0x80u);
  std::vector<uint8_t> bytes;
  for (uint32_t v : values) VByteEncode32(v, bytes);

  std::vector<uint32_t> wide(values.size());
  size_t offset = 0;
  ASSERT_TRUE(
      VByteDecodeArray32(bytes.data(), bytes.size(), offset, values.size(), wide.data()));
  size_t scalar_offset = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(wide[i], VByteDecode32(bytes.data(), scalar_offset)) << i;
  }
  EXPECT_EQ(offset, scalar_offset);
}

TEST(VarintArrayTest, RejectsTruncatedTail) {
  std::vector<uint32_t> values(20, 0x4000u);  // 3 bytes each.
  std::vector<uint8_t> bytes;
  for (uint32_t v : values) VByteEncode32(v, bytes);
  std::vector<uint32_t> decoded(values.size());
  // Cutting the buffer anywhere inside the stream must fail cleanly.
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    size_t offset = 0;
    EXPECT_FALSE(
        VByteDecodeArray32(bytes.data(), cut, offset, values.size(), decoded.data()))
        << cut;
  }
}

}  // namespace
}  // namespace jxp
