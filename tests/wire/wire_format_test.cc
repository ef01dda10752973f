#include "wire/wire_format.h"

#include <cstdint>
#include <string>
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

TEST(WireFormatTest, ChecksumIsHashStringOfHeaderAndPayload) {
  // The checksum streams over the two spans; it must equal HashString of
  // their concatenation, the definition the frame format documents.
  std::vector<uint8_t> payload(300);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i * 37);
  const uint8_t header[kChecksumOffset] = {0x4a, 0x58, 0x01, 0x02,
                                           0x2c, 0x01, 0x00, 0x00};
  for (size_t len : {size_t{0}, size_t{1}, size_t{300}}) {
    std::string joined(reinterpret_cast<const char*>(header), kChecksumOffset);
    joined.append(reinterpret_cast<const char*>(payload.data()), len);
    EXPECT_EQ(ComputeFrameChecksum(header, std::span<const uint8_t>(payload.data(), len)),
              HashString(joined))
        << "payload length " << len;
  }
}

TEST(WireFormatTest, SealFrameMatchesAppendFrame) {
  const std::vector<uint8_t> payload = SamplePayload();
  std::vector<uint8_t> appended;
  AppendFrame(MessageType::kScoreChunk, payload, appended);

  // SealFrame writes the payload first, then inserts the header in front.
  std::vector<uint8_t> sealed = {9, 9, 9};  // Pre-existing bytes stay put.
  const size_t payload_start = sealed.size();
  sealed.insert(sealed.end(), payload.begin(), payload.end());
  SealFrame(MessageType::kScoreChunk, payload_start, sealed);

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
