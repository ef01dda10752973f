#include "wire/wire_format.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace jxp {
namespace wire {
namespace {

std::vector<uint8_t> SamplePayload() { return {1, 2, 3, 0x80, 0xff, 42}; }

TEST(WireFormatTest, AppendAndParseFrameRoundTrips) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kWorldKnowledge, payload, buffer);
  ASSERT_EQ(buffer.size(), kFrameHeaderBytes + payload.size());

  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(buffer, offset, frame).ok());
  EXPECT_EQ(frame.type, MessageType::kWorldKnowledge);
  EXPECT_EQ(offset, buffer.size());
  ASSERT_EQ(frame.payload.size(), payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), frame.payload.begin()));
}

/// The documented checksum, computed over one contiguous byte string (the 8
/// pre-checksum header bytes followed by the payload): little-endian words,
/// the last zero-padded, each folded as h = rotl(h + w * P2, 31) * P1 from
/// the seed P5, then the length xored in and Mix64.
uint64_t ReferenceChecksum(const std::vector<uint8_t>& bytes) {
  constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  uint64_t h = 0x27d4eb2f165667c5ULL;
  for (size_t word = 0; word < bytes.size(); word += 8) {
    uint64_t w = 0;
    for (size_t i = 0; i < 8 && word + i < bytes.size(); ++i) {
      w |= static_cast<uint64_t>(bytes[word + i]) << (8 * i);
    }
    h = std::rotl(h + w * kP2, 31) * kP1;
  }
  return Mix64(h ^ bytes.size());
}

TEST(WireFormatTest, ChecksumStreamsHeaderThenPayload) {
  // The checksum streams over the header and the payload, which sit apart
  // in the socket readers; it must equal the checksum of their
  // concatenation for every tail size of the final word.
  std::vector<uint8_t> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i * 37);
  const uint8_t header[kChecksumOffset] = {0x4a, 0x58, 0x02, 0x02,
                                           0x2c, 0x01, 0x00, 0x00};
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 17; ++len) lengths.push_back(len);
  lengths.push_back(300);
  for (const size_t len : lengths) {
    std::vector<uint8_t> joined(header, header + kChecksumOffset);
    joined.insert(joined.end(), payload.begin(), payload.begin() + len);
    EXPECT_EQ(ComputeFrameChecksum(header, std::span<const uint8_t>(payload.data(), len)),
              ReferenceChecksum(joined))
        << "payload length " << len;
  }
}

TEST(WireFormatTest, SealFrameMatchesAppendFrame) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> appended;
  AppendFrame(MessageType::kScoreChunk, payload, appended);

  // The payload is written behind 16 reserved bytes; SealFrame writes the
  // header over them.
  std::vector<uint8_t> sealed = {9, 9, 9};  // Pre-existing bytes stay put.
  const size_t frame_start = sealed.size();
  sealed.resize(frame_start + kFrameHeaderBytes, 0xee);
  sealed.insert(sealed.end(), payload.begin(), payload.end());
  SealFrame(MessageType::kScoreChunk, frame_start, sealed);

  ASSERT_EQ(sealed.size(), 3 + appended.size());
  EXPECT_EQ(std::vector<uint8_t>(sealed.begin(), sealed.begin() + 3),
            (std::vector<uint8_t>{9, 9, 9}));
  EXPECT_TRUE(std::equal(appended.begin(), appended.end(), sealed.begin() + 3));
}

TEST(WireFormatTest, EmptyPayloadFrameRoundTrips) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kWorldKnowledge, {}, buffer);
  EXPECT_EQ(buffer.size(), kFrameHeaderBytes);
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(buffer, offset, frame).ok());
  EXPECT_EQ(frame.type, MessageType::kWorldKnowledge);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(WireFormatTest, ParseConsumesConsecutiveFrames) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kScoreChunk, SamplePayload(), buffer);
  AppendFrame(MessageType::kWorldKnowledge, {}, buffer);
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(buffer, offset, frame).ok());
  EXPECT_EQ(frame.type, MessageType::kScoreChunk);
  ASSERT_TRUE(ParseFrame(buffer, offset, frame).ok());
  EXPECT_EQ(frame.type, MessageType::kWorldKnowledge);
  EXPECT_EQ(offset, buffer.size());
}

TEST(WireFormatTest, TruncatedHeaderRejected) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kScoreChunk, SamplePayload(), buffer);
  for (size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
    size_t offset = 0;
    FrameView frame;
    const Status status =
        ParseFrame(std::span<const uint8_t>(buffer.data(), cut), offset, frame);
    EXPECT_FALSE(status.ok()) << "header cut to " << cut << " bytes";
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WireFormatTest, TruncatedPayloadRejected) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kScoreChunk, SamplePayload(), buffer);
  size_t offset = 0;
  FrameView frame;
  const Status status = ParseFrame(
      std::span<const uint8_t>(buffer.data(), buffer.size() - 1), offset, frame);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(offset, 0u);
}

TEST(WireFormatTest, EverySingleBitFlipIsDetected) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kWorldKnowledge, SamplePayload(), buffer);
  for (size_t byte = 0; byte < buffer.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = buffer;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      size_t offset = 0;
      FrameView frame;
      const Status status = ParseFrame(corrupt, offset, frame);
      EXPECT_FALSE(status.ok()) << "flip at byte " << byte << " bit " << bit;
      EXPECT_EQ(offset, 0u);
    }
  }
}

TEST(WireFormatTest, UnknownVersionAndTypeRejected) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kScoreChunk, SamplePayload(), buffer);
  // A future version or type also has a valid checksum in a well-formed
  // frame, so rebuild the frame byte-for-byte and only break the one field —
  // the parser must reject on the field itself, not the checksum.
  {
    std::vector<uint8_t> future = buffer;
    future[2] = kVersion + 1;
    size_t offset = 0;
    FrameView frame;
    EXPECT_FALSE(ParseFrame(future, offset, frame).ok());
  }
  {
    std::vector<uint8_t> unknown = buffer;
    unknown[3] = 0x7e;
    size_t offset = 0;
    FrameView frame;
    EXPECT_FALSE(ParseFrame(unknown, offset, frame).ok());
  }
  {
    // Type byte 3 is retired: a frame carrying it, checksum intact, is
    // rejected with an error Status.
    std::vector<uint8_t> retired;
    AppendFrameRaw(3, SamplePayload(), retired);
    size_t offset = 0;
    FrameView frame;
    const Status status = ParseFrame(retired, offset, frame);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
    EXPECT_EQ(offset, 0u);
  }
}

TEST(WireFormatTest, PayloadLengthPastBufferRejectedBeforeChecksum) {
  std::vector<uint8_t> buffer;
  AppendFrame(MessageType::kScoreChunk, SamplePayload(), buffer);
  buffer[4] = 0xff;  // Claim a 255+ byte payload the buffer does not hold.
  size_t offset = 0;
  FrameView frame;
  const Status status = ParseFrame(buffer, offset, frame);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(offset, 0u);
}

TEST(WireFormatTest, WriterReaderPrimitivesRoundTrip) {
  std::vector<uint8_t> bytes;
  ByteWriter writer(bytes);
  writer.PutU8(0xab);
  writer.PutU32(0xdeadbeefu);
  writer.PutU64(0x0123456789abcdefULL);
  writer.PutVarint32(0xffffffffu);
  writer.PutVarint64(0xffffffffffffffffULL);
  writer.PutVarint32(0);
  writer.PutFloat(1.5f);

  ByteReader reader(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f = 0;
  ASSERT_TRUE(reader.GetU8(&u8));
  EXPECT_EQ(u8, 0xab);
  ASSERT_TRUE(reader.GetU32(&u32));
  EXPECT_EQ(u32, 0xdeadbeefu);
  ASSERT_TRUE(reader.GetU64(&u64));
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  ASSERT_TRUE(reader.GetVarint32(&u32));
  EXPECT_EQ(u32, 0xffffffffu);
  ASSERT_TRUE(reader.GetVarint64(&u64));
  EXPECT_EQ(u64, 0xffffffffffffffffULL);
  ASSERT_TRUE(reader.GetVarint32(&u32));
  EXPECT_EQ(u32, 0u);
  ASSERT_TRUE(reader.GetFloat(&f));
  EXPECT_EQ(f, 1.5f);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireFormatTest, Varint64RoundTrips) {
  const uint64_t values[] = {0, 0x7fu, 0x80u, 1ull << 35, 1ull << 62,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::vector<uint8_t> bytes;
    ByteWriter writer(bytes);
    writer.PutVarint64(v);
    writer.Finish();
    ByteReader reader(bytes);
    uint64_t decoded = 0;
    ASSERT_TRUE(reader.GetVarint64(&decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(WireFormatTest, BoundedWriterTrimsToWhatItWrote) {
  std::vector<uint8_t> unbounded = {7};
  ByteWriter plain(unbounded);
  plain.PutVarint32(300);
  plain.PutFloat(1.5f);

  std::vector<uint8_t> bounded = {7};
  {
    ByteWriter writer(bounded, 64);
    writer.PutVarint32(300);
    writer.PutFloat(1.5f);
    EXPECT_EQ(bounded.size(), 65u);  // Slack until the writer finishes.
  }
  EXPECT_EQ(bounded, unbounded);
}

TEST(WireFormatDeathTest, BoundedWriterAbortsPastItsBound) {
  // Room is checked for a record's largest size: a varint needs 5 bytes of
  // bound even when its value takes one.
  EXPECT_DEATH(
      {
        std::vector<uint8_t> out;
        ByteWriter writer(out, 4);
        writer.PutVarint32(1);
      },
      "computed bound");
}

TEST(WireFormatTest, ReaderFailuresLeaveCursorUntouched) {
  const std::vector<uint8_t> bytes = {1, 2};
  ByteReader reader(bytes);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  EXPECT_FALSE(reader.GetU32(&u32));
  EXPECT_FALSE(reader.GetU64(&u64));
  EXPECT_EQ(reader.position(), 0u);
  uint8_t u8 = 0;
  ASSERT_TRUE(reader.GetU8(&u8));
  EXPECT_EQ(reader.position(), 1u);
}

TEST(WireFormatTest, VarintRejectsValueOverflow) {
  // 5-byte varint carrying 35 significant bits: fine for 64, too wide for 32.
  const std::vector<uint8_t> wide = {0x80, 0x80, 0x80, 0x80, 0x10};
  {
    ByteReader reader(wide);
    uint32_t v = 0;
    EXPECT_FALSE(reader.GetVarint32(&v));
    EXPECT_EQ(reader.position(), 0u);
  }
  {
    ByteReader reader(wide);
    uint64_t v = 0;
    ASSERT_TRUE(reader.GetVarint64(&v));
    EXPECT_EQ(v, 1ULL << 32);
  }
  // Zero padded to six bytes: a value within 32 bits, but longer than the
  // five bytes a 32-bit varint can take. No encoder emits it.
  const std::vector<uint8_t> padded = {0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  {
    ByteReader reader(padded);
    uint32_t v = 0;
    EXPECT_FALSE(reader.GetVarint32(&v));
    EXPECT_EQ(reader.position(), 0u);
  }
  // A 10th byte carrying more than the final 64-bit value bit.
  const std::vector<uint8_t> overlong = {0x80, 0x80, 0x80, 0x80, 0x80,
                                         0x80, 0x80, 0x80, 0x80, 0x02};
  ByteReader reader(overlong);
  uint64_t v = 0;
  EXPECT_FALSE(reader.GetVarint64(&v));
  EXPECT_EQ(reader.position(), 0u);
}

TEST(WireFormatTest, VarintFastPathMatchesCheckedDecode) {
  // Every encoding length, the largest legal 5th byte, an overlong 5th byte
  // and a continuation bit in the 5th byte, each read by ByteReader both
  // with room to spare (the unchecked path) and flush against the end of
  // the buffer; value, position and verdict must match VByteDecode32Checked.
  const std::vector<std::vector<uint8_t>> encodings = {
      {0x00},
      {0x7f},
      {0x80, 0x01},
      {0xff, 0x7f},
      {0x80, 0x80, 0x01},
      {0xff, 0xff, 0x7f},
      {0x80, 0x80, 0x80, 0x01},
      {0xff, 0xff, 0xff, 0x7f},
      {0x80, 0x80, 0x80, 0x80, 0x01},
      {0xff, 0xff, 0xff, 0xff, 0x0f},        // 0xffffffff
      {0x80, 0x80, 0x80, 0x80, 0x10},        // 33 bits
      {0xff, 0xff, 0xff, 0xff, 0x7f},        // 35 bits
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x00},  // continuation in the 5th byte
      {0xff, 0xff, 0xff, 0xff, 0x8f, 0x01},
      {0x80, 0x80},                          // unterminated
  };
  for (const std::vector<uint8_t>& encoding : encodings) {
    for (const size_t padding : {size_t{0}, size_t{8}}) {
      // A one-byte value first, so the read under test starts mid-buffer.
      std::vector<uint8_t> bytes = {0x05};
      bytes.insert(bytes.end(), encoding.begin(), encoding.end());
      bytes.resize(bytes.size() + padding, 0x00);

      size_t checked_pos = 1;
      uint32_t checked = 0;
      const bool checked_ok =
          VByteDecode32Checked(bytes.data(), bytes.size(), checked_pos, &checked);

      ByteReader reader(bytes);
      uint32_t first = 0;
      ASSERT_TRUE(reader.GetVarint32(&first));
      ASSERT_EQ(first, 5u);
      uint32_t fast = 0;
      const bool fast_ok = reader.GetVarint32(&fast);
      SCOPED_TRACE(::testing::Message()
                   << "encoding of " << encoding.size() << " bytes ending 0x" << std::hex
                   << static_cast<int>(encoding.back()) << std::dec << ", padding "
                   << padding);
      EXPECT_EQ(fast_ok, checked_ok);
      EXPECT_EQ(reader.position(), checked_pos);
      if (checked_ok) {
        EXPECT_EQ(fast, checked);
      }
    }
  }
}

TEST(WireFormatTest, VarintRejectsUnterminatedEncoding) {
  const std::vector<uint8_t> unterminated = {0x80, 0x80};
  ByteReader reader(unterminated);
  uint64_t v = 0;
  EXPECT_FALSE(reader.GetVarint64(&v));
  EXPECT_EQ(reader.position(), 0u);
}

}  // namespace
}  // namespace wire
}  // namespace jxp
