#include "wire/frame_assembler.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "wire/wire_format.h"

namespace jxp {
namespace wire {
namespace {

std::vector<uint8_t> SamplePayload() { return {1, 2, 3, 0x80, 0xff, 42, 7}; }

std::vector<uint8_t> OneFrame(uint8_t type, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> buffer;
  AppendFrameRaw(type, payload, buffer);
  return buffer;
}

/// Feeds `data` in `chunk`-byte pieces, collecting every completed frame as
/// (type, payload) pairs. Returns the total bytes the assembler consumed.
size_t FeedChunked(FrameAssembler& assembler, const std::vector<uint8_t>& data,
                   size_t chunk,
                   std::vector<std::pair<uint8_t, std::vector<uint8_t>>>& frames) {
  size_t fed = 0;
  while (fed < data.size()) {
    const size_t n = std::min(chunk, data.size() - fed);
    const std::span<const uint8_t> piece(data.data() + fed, n);
    size_t consumed_of_piece = 0;
    while (consumed_of_piece < n) {
      const size_t consumed =
          assembler.Feed(piece.subspan(consumed_of_piece));
      if (assembler.HasFrame()) {
        frames.emplace_back(assembler.frame_type(),
                            std::vector<uint8_t>(assembler.frame_payload().begin(),
                                                 assembler.frame_payload().end()));
        assembler.ConsumeFrame();
      }
      if (consumed == 0 && !assembler.HasFrame()) {
        // Error state: nothing further will be consumed.
        return fed + consumed_of_piece;
      }
      consumed_of_piece += consumed;
    }
    fed += n;
  }
  return fed;
}

TEST(FrameAssemblerTest, SingleFrameOneShot) {
  FrameAssembler assembler;
  const std::vector<uint8_t> data = OneFrame(0x12, SamplePayload());
  EXPECT_EQ(assembler.Feed(data), data.size());
  ASSERT_TRUE(assembler.HasFrame());
  EXPECT_EQ(assembler.frame_type(), 0x12);
  EXPECT_EQ(std::vector<uint8_t>(assembler.frame_payload().begin(),
                                 assembler.frame_payload().end()),
            SamplePayload());
  assembler.ConsumeFrame();
  EXPECT_FALSE(assembler.HasFrame());
  EXPECT_TRUE(assembler.error().ok());
}

TEST(FrameAssemblerTest, OneByteAtATime) {
  FrameAssembler assembler;
  std::vector<uint8_t> data = OneFrame(0x10, SamplePayload());
  std::vector<uint8_t> second = OneFrame(0x11, {});
  data.insert(data.end(), second.begin(), second.end());

  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> frames;
  EXPECT_EQ(FeedChunked(assembler, data, 1, frames), data.size());
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].first, 0x10);
  EXPECT_EQ(frames[0].second, SamplePayload());
  EXPECT_EQ(frames[1].first, 0x11);
  EXPECT_TRUE(frames[1].second.empty());
  EXPECT_TRUE(assembler.error().ok());
}

TEST(FrameAssemblerTest, SplitInsideHeaderAndInsidePayload) {
  const std::vector<uint8_t> data = OneFrame(0x20, SamplePayload());
  // Every split point of a single frame must reassemble identically.
  for (size_t split = 1; split + 1 < data.size(); ++split) {
    FrameAssembler assembler;
    EXPECT_EQ(assembler.Feed(std::span(data.data(), split)), split);
    EXPECT_FALSE(assembler.HasFrame());
    EXPECT_EQ(assembler.Feed(std::span(data.data() + split, data.size() - split)),
              data.size() - split);
    ASSERT_TRUE(assembler.HasFrame()) << "split at " << split;
    EXPECT_EQ(std::vector<uint8_t>(assembler.frame_payload().begin(),
                                   assembler.frame_payload().end()),
              SamplePayload());
  }
}

TEST(FrameAssemblerTest, StopsConsumingAtFrameBoundary) {
  // Bytes after a completed frame stay with the caller until ConsumeFrame —
  // the property the net layer's blob-mode switch depends on.
  FrameAssembler assembler;
  std::vector<uint8_t> data = OneFrame(0x14, {9, 9});
  const std::vector<uint8_t> blob = {0xaa, 0xbb, 0xcc};
  data.insert(data.end(), blob.begin(), blob.end());

  const size_t consumed = assembler.Feed(data);
  EXPECT_EQ(consumed, data.size() - blob.size());
  ASSERT_TRUE(assembler.HasFrame());
  // A pending frame holds the stream: nothing more is consumed.
  EXPECT_EQ(assembler.Feed(blob), 0u);
  assembler.ConsumeFrame();
  // The trailing blob bytes were never touched by the assembler: the next
  // frame assembles from scratch.
  const std::vector<uint8_t> next = OneFrame(0x15, {7});
  EXPECT_EQ(assembler.Feed(next), next.size());
  ASSERT_TRUE(assembler.HasFrame());
  EXPECT_EQ(assembler.frame_type(), 0x15);
}

TEST(FrameAssemblerTest, OversizedLengthRejectedBeforeAllocation) {
  // A header announcing one byte over the cap, followed by payload bytes.
  std::vector<uint8_t> data = OneFrame(0x10, std::vector<uint8_t>(64, 1));
  const uint32_t oversized = static_cast<uint32_t>(kMaxFramePayloadBytes + 1);
  for (int i = 0; i < 4; ++i) data[4 + i] = static_cast<uint8_t>(oversized >> (8 * i));
  FrameAssembler assembler;
  const size_t consumed = assembler.Feed(data);
  // The assembler stops at the header: the bogus payload is never buffered.
  EXPECT_EQ(consumed, kFrameHeaderBytes);
  EXPECT_TRUE(assembler.failed());
  EXPECT_EQ(assembler.error().code(), StatusCode::kOutOfRange)
      << assembler.error().ToString();
  // Sticky: further input is refused.
  EXPECT_EQ(assembler.Feed(data), 0u);
}

TEST(FrameAssemblerTest, HugeDeclaredLengthNeverReserves) {
  // A length field of ~4 GiB must be rejected at header time under the
  // default cap, long before any allocation.
  std::vector<uint8_t> header = OneFrame(0x10, {});
  header[4] = 0xff;
  header[5] = 0xff;
  header[6] = 0xff;
  header[7] = 0xff;
  FrameAssembler assembler;
  assembler.Feed(header);
  EXPECT_TRUE(assembler.failed());
  EXPECT_EQ(assembler.error().code(), StatusCode::kOutOfRange);
}

TEST(FrameAssemblerTest, BadMagicAndBadVersionFailFast) {
  std::vector<uint8_t> bad_magic = OneFrame(0x10, SamplePayload());
  bad_magic[0] ^= 0xff;
  FrameAssembler a1;
  a1.Feed(bad_magic);
  EXPECT_TRUE(a1.failed());

  std::vector<uint8_t> bad_version = OneFrame(0x10, SamplePayload());
  bad_version[2] = kVersion + 1;
  FrameAssembler a2;
  a2.Feed(bad_version);
  EXPECT_TRUE(a2.failed());
}

TEST(FrameAssemblerTest, ChecksumMismatchDetected) {
  std::vector<uint8_t> data = OneFrame(0x10, SamplePayload());
  data.back() ^= 0x01;  // Flip one payload bit.
  FrameAssembler assembler;
  assembler.Feed(data);
  EXPECT_FALSE(assembler.HasFrame());
  EXPECT_TRUE(assembler.failed());
  EXPECT_EQ(assembler.error().code(), StatusCode::kCorruption);
}

TEST(FrameAssemblerTest, ArbitraryTypeBytesPassThrough) {
  // The assembler does not restrict the type space (the net layer defines
  // types outside the meeting payload set).
  for (uint8_t type : {uint8_t{0}, uint8_t{0x10}, uint8_t{0x29}, uint8_t{0xfe}}) {
    FrameAssembler assembler;
    const std::vector<uint8_t> data = OneFrame(type, {1, 2, 3});
    assembler.Feed(data);
    ASSERT_TRUE(assembler.HasFrame()) << int(type);
    EXPECT_EQ(assembler.frame_type(), type);
  }
}

TEST(FrameAssemblerTest, ParsesFrameStreamIdenticallyToParseFrame) {
  // A multi-frame meeting-style stream reassembled in 3-byte chunks matches
  // the batch parser frame for frame.
  std::vector<uint8_t> data;
  const std::vector<uint8_t> world_payload = {5, 5, 5, 5};
  AppendFrame(MessageType::kScoreChunk, SamplePayload(), data);
  AppendFrame(MessageType::kWorldKnowledge, world_payload, data);
  AppendFrame(MessageType::kWorldKnowledge, std::vector<uint8_t>{}, data);

  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> streamed;
  FrameAssembler assembler;
  FeedChunked(assembler, data, 3, streamed);

  size_t offset = 0;
  std::vector<std::pair<uint8_t, std::vector<uint8_t>>> batch;
  while (offset < data.size()) {
    FrameView frame;
    ASSERT_TRUE(ParseFrame(data, offset, frame).ok());
    batch.emplace_back(static_cast<uint8_t>(frame.type),
                       std::vector<uint8_t>(frame.payload.begin(), frame.payload.end()));
  }
  EXPECT_EQ(streamed, batch);
}

}  // namespace
}  // namespace wire
}  // namespace jxp
