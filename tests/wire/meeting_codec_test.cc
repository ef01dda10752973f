#include "wire/meeting_codec.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/varint.h"
#include "graph/subgraph.h"
#include "wire/wire_format.h"

namespace jxp {
namespace wire {
namespace {

/// A deterministic fragment of `n` pages with ids 3*i and a few successors
/// per page (some local, some external).
graph::Subgraph MakeFragment(size_t n) {
  std::vector<graph::PageId> pages;
  std::vector<std::vector<graph::PageId>> successors;
  for (size_t i = 0; i < n; ++i) {
    const graph::PageId page = static_cast<graph::PageId>(3 * i);
    pages.push_back(page);
    std::vector<graph::PageId> succ;
    if (i + 1 < n) succ.push_back(static_cast<graph::PageId>(3 * (i + 1)));
    succ.push_back(page + 1);  // External target.
    successors.push_back(std::move(succ));
  }
  return graph::Subgraph::FromKnowledge(std::move(pages), std::move(successors));
}

/// One world entry for MakeWorld.
struct Entry {
  graph::PageId page;
  uint32_t out_degree;
  double score;
  std::vector<graph::PageId> targets;
};

/// World columns holding `entries` and `dangling` (both sorted by page).
WorldColumns MakeWorld(
    const std::vector<Entry>& entries,
    const std::vector<std::pair<graph::PageId, double>>& dangling = {}) {
  WorldColumns world;
  for (const Entry& entry : entries) {
    world.pages.push_back(entry.page);
    world.out_degrees.push_back(entry.out_degree);
    world.scores.push_back(entry.score);
    world.targets.insert(world.targets.end(), entry.targets.begin(), entry.targets.end());
    world.target_offsets.push_back(world.targets.size());
  }
  for (const auto& [page, score] : dangling) {
    world.dangling_pages.push_back(page);
    world.dangling_scores.push_back(score);
  }
  return world;
}

std::vector<double> MakeScores(size_t n) {
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) scores[i] = 1.0 / static_cast<double>(n + i + 1);
  return scores;
}

TEST(MeetingCodecTest, ScoreListRoundTripsAcrossChunks) {
  const size_t n = 150;  // > 2 chunks of kPagesPerChunk (64) pages.
  const graph::Subgraph fragment = MakeFragment(n);
  const std::vector<double> scores = MakeScores(n);

  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), scores, bytes);

  const DecodedMeeting decoded = DecodeMeeting(bytes);
  ASSERT_TRUE(decoded.error.ok()) << decoded.error.ToString();
  EXPECT_EQ(decoded.frames_decoded, (n + 63) / 64);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  const PageTableColumns& table = decoded.page_table;
  ASSERT_EQ(table.pages.size(), n);
  ASSERT_EQ(table.scores.size(), n);
  ASSERT_EQ(table.successor_offsets.size(), n + 1);
  for (size_t i = 0; i < n; ++i) {
    const auto local = static_cast<graph::Subgraph::LocalIndex>(i);
    EXPECT_EQ(table.pages[i], fragment.GlobalId(local));
    EXPECT_EQ(table.scores[i], LowerBoundFloat(scores[i]));
    const auto expected = fragment.Successors(local);
    ASSERT_EQ(table.successor_offsets[i + 1] - table.successor_offsets[i],
              expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           table.successors.begin() +
                               static_cast<ptrdiff_t>(table.successor_offsets[i])));
  }
}

TEST(MeetingCodecTest, ScoresAreQuantizedNeverUpward) {
  const size_t n = 40;
  const graph::Subgraph fragment = MakeFragment(n);
  const std::vector<double> scores = MakeScores(n);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), scores, bytes);
  const DecodedMeeting decoded = DecodeMeeting(bytes);
  ASSERT_TRUE(decoded.error.ok()) << decoded.error.ToString();
  for (size_t i = 0; i < n; ++i) {
    // Theorem 5.3 safety: the wire never reports more than the exact double.
    EXPECT_LE(decoded.page_table.scores[i], scores[i]);
    EXPECT_NEAR(decoded.page_table.scores[i], scores[i], scores[i] * 1e-6);
  }
}

TEST(MeetingCodecTest, CompressionStaysUnderEightBytesPerEntry) {
  // Delta + VByte ids and 4-byte scores must beat the analytic model's
  // 16 B/page; the acceptance bar is < 8 B per score-list entry on a dense
  // id range, links excluded (dangling pages, so no successor cost).
  const size_t n = 512;
  std::vector<graph::PageId> pages(n);
  for (size_t i = 0; i < n; ++i) pages[i] = static_cast<graph::PageId>(i);
  const graph::Subgraph fragment = graph::Subgraph::FromKnowledge(
      std::move(pages), std::vector<std::vector<graph::PageId>>(n));
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), MakeScores(n), bytes);
  EXPECT_LT(static_cast<double>(bytes.size()) / static_cast<double>(n), 8.0);
}

TEST(MeetingCodecTest, WorldKnowledgeRoundTrips) {
  const std::vector<graph::PageId> targets1 = {5, 9, 12};
  const std::vector<graph::PageId> targets2 = {7};
  const WorldColumns world =
      MakeWorld({{100, 4, 0.001, targets1}, {220, 1, 0.25, targets2}},
                {{17, 0.0625}, {400, 0.125}});
  std::vector<uint8_t> bytes;
  EncodeWorldKnowledge(world, bytes);

  const DecodedMeeting decoded = DecodeMeeting(bytes);
  ASSERT_TRUE(decoded.error.ok()) << decoded.error.ToString();
  const WorldColumns& got = decoded.world;
  ASSERT_EQ(got.NumEntries(), 2u);
  EXPECT_EQ(got.pages[0], 100u);
  EXPECT_EQ(got.out_degrees[0], 4u);
  EXPECT_EQ(got.scores[0], LowerBoundFloat(0.001));
  EXPECT_TRUE(std::ranges::equal(got.Targets(0), targets1));
  EXPECT_EQ(got.pages[1], 220u);
  EXPECT_TRUE(std::ranges::equal(got.Targets(1), targets2));
  ASSERT_EQ(got.dangling_pages.size(), 2u);
  EXPECT_EQ(got.dangling_pages[0], 17u);
  EXPECT_EQ(got.dangling_scores[0], LowerBoundFloat(0.0625));
  EXPECT_EQ(got.dangling_pages[1], 400u);
}

TEST(MeetingCodecTest, EmptyWorldKnowledgeIsNotFramed) {
  std::vector<uint8_t> bytes;
  EncodeWorldKnowledge(WorldColumns{}, bytes);
  EXPECT_TRUE(bytes.empty());
}

TEST(MeetingCodecTest, TruncatedTransferSalvagesWholeChunkPrefix) {
  const size_t n = 150;
  const graph::Subgraph fragment = MakeFragment(n);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), MakeScores(n), bytes);

  // Find the second chunk boundary by parsing two frames.
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  const size_t two_chunks = offset;

  // Cut mid-third-chunk: the intact two-chunk prefix must decode.
  std::vector<uint8_t> cut(bytes.begin(),
                           bytes.begin() + static_cast<ptrdiff_t>(two_chunks + 10));
  const DecodedMeeting decoded = DecodeMeeting(cut);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.frames_decoded, 2u);
  EXPECT_EQ(decoded.bytes_consumed, two_chunks);
  ASSERT_EQ(decoded.page_table.pages.size(), 128u);
  ASSERT_EQ(decoded.page_table.successor_offsets.size(), 129u);
  for (size_t i = 0; i < decoded.page_table.pages.size(); ++i) {
    EXPECT_EQ(decoded.page_table.pages[i],
              fragment.GlobalId(static_cast<graph::Subgraph::LocalIndex>(i)));
  }
}

TEST(MeetingCodecTest, BitFlipRejectsOnlyTheDamagedSuffix) {
  const size_t n = 150;
  const graph::Subgraph fragment = MakeFragment(n);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), MakeScores(n), bytes);
  size_t offset = 0;
  FrameView frame;
  ASSERT_TRUE(ParseFrame(bytes, offset, frame).ok());
  const size_t first_chunk = offset;

  std::vector<uint8_t> corrupt = bytes;
  corrupt[first_chunk + 20] ^= 0x10;  // Inside the second frame.
  const DecodedMeeting decoded = DecodeMeeting(corrupt);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.frames_decoded, 1u);
  EXPECT_EQ(decoded.bytes_consumed, first_chunk);
  EXPECT_EQ(decoded.page_table.pages.size(), 64u);
  EXPECT_EQ(decoded.page_table.scores.size(), 64u);
  EXPECT_EQ(decoded.page_table.successor_offsets.size(), 65u);
  EXPECT_EQ(decoded.page_table.successors.size(),
            decoded.page_table.successor_offsets.back());
}

TEST(MeetingCodecTest, RejectedChunkLeavesWholeFramesOnly) {
  // The second chunk's first record parses, its second is out of order:
  // the frame is rejected and the page table keeps exactly the first chunk.
  const graph::Subgraph fragment = MakeFragment(10);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), MakeScores(10), bytes);
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(10);  // first_index
  writer.PutVarint32(2);   // count
  writer.PutVarint32(3);   // page 27 + 3 = 30
  writer.PutFloat(0.01f);
  writer.PutVarint32(1);   // degree
  writer.PutVarint32(31);  // successor
  writer.PutVarint32(0);   // page delta 0: not strictly ascending
  writer.PutFloat(0.01f);
  writer.PutVarint32(0);
  AppendFrame(MessageType::kScoreChunk, payload, bytes);

  const DecodedMeeting decoded = DecodeMeeting(bytes);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.frames_decoded, 1u);
  const PageTableColumns& table = decoded.page_table;
  ASSERT_EQ(table.pages.size(), 10u);
  EXPECT_EQ(table.scores.size(), 10u);
  ASSERT_EQ(table.successor_offsets.size(), 11u);
  EXPECT_EQ(table.successor_offsets.back(), table.successors.size());
  EXPECT_EQ(table.successors.size(),
            fragment.NumLocalEdges() + fragment.NumExternalOutEdges());
}

TEST(MeetingCodecTest, OutOfOrderSectionsRejected) {
  const graph::Subgraph fragment = MakeFragment(40);
  const WorldColumns world = MakeWorld({{100, 2, 0.1, {5}}});

  // World frame before the score chunks: the world decodes, the late score
  // chunk is rejected.
  std::vector<uint8_t> bytes;
  EncodeWorldKnowledge(world, bytes);
  EncodeScoreList(fragment.Table(), MakeScores(40), bytes);
  const DecodedMeeting decoded = DecodeMeeting(bytes);
  EXPECT_FALSE(decoded.error.ok());
  EXPECT_EQ(decoded.world.NumEntries(), 1u);
  EXPECT_TRUE(decoded.page_table.pages.empty());
}

TEST(MeetingCodecTest, DuplicateWorldFrameRejected) {
  const WorldColumns world = MakeWorld({{100, 2, 0.1, {5}}});
  std::vector<uint8_t> bytes;
  EncodeWorldKnowledge(world, bytes);
  EncodeWorldKnowledge(world, bytes);
  EXPECT_FALSE(DecodeMeeting(bytes).error.ok());
}

TEST(MeetingCodecTest, CorruptCountsCannotForceHugeAllocations) {
  // A kScoreChunk whose count field claims far more records than the payload
  // could hold must be rejected up front (no multi-GB reserve on garbage).
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(0);           // first_index
  writer.PutVarint32(0x0fffffff);  // absurd record count
  std::vector<uint8_t> bytes;
  AppendFrame(MessageType::kScoreChunk, payload, bytes);
  const DecodedMeeting out = DecodeMeeting(bytes);
  EXPECT_FALSE(out.error.ok());
  EXPECT_TRUE(out.page_table.pages.empty());
}

TEST(MeetingCodecTest, NonFiniteAndNegativeScoresRejected) {
  for (const float bad : {-0.25f, std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<uint8_t> payload;
    ByteWriter writer(payload);
    writer.PutVarint32(0);  // first_index
    writer.PutVarint32(1);  // count
    writer.PutVarint32(3);  // page id
    writer.PutFloat(bad);
    writer.PutVarint32(0);  // degree
    std::vector<uint8_t> bytes;
    AppendFrame(MessageType::kScoreChunk, payload, bytes);
    EXPECT_FALSE(DecodeMeeting(bytes).error.ok()) << "score " << bad;
  }
}

/// One world entry as the frame spells it: page delta, score, out-degree,
/// then the target count and target deltas.
struct RawWorldEntry {
  uint32_t page_delta;
  float score;
  uint32_t out_degree;
  std::vector<uint32_t> target_deltas;
};

/// A message holding one kWorldKnowledge frame with `entries` and the
/// dangling records (page delta, score) `dangling`, written field by field
/// so that it can break any element invariant.
std::vector<uint8_t> RawWorldFrame(const std::vector<RawWorldEntry>& entries,
                                   const std::vector<std::pair<uint32_t, float>>& dangling) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(static_cast<uint32_t>(entries.size()));
  for (const RawWorldEntry& entry : entries) {
    writer.PutVarint32(entry.page_delta);
    writer.PutFloat(entry.score);
    writer.PutVarint32(entry.out_degree);
    writer.PutVarint32(static_cast<uint32_t>(entry.target_deltas.size()));
    for (uint32_t delta : entry.target_deltas) writer.PutVarint32(delta);
  }
  writer.PutVarint32(static_cast<uint32_t>(dangling.size()));
  for (const auto& [page_delta, score] : dangling) {
    writer.PutVarint32(page_delta);
    writer.PutFloat(score);
  }
  writer.Finish();
  std::vector<uint8_t> bytes;
  AppendFrame(MessageType::kWorldKnowledge, payload, bytes);
  return bytes;
}

TEST(MeetingCodecTest, WorldFrameElementInvariantsAreEnforcedByTheDecoder) {
  // core::WorldNode adopts decoded columns checking only their shape, so
  // the decoder must reject every element the WorldColumns invariants rule
  // out. The well-formed frame decodes; each broken one is Corruption.
  const RawWorldEntry a{100, 0.1f, 3, {5, 2}};
  const RawWorldEntry b{20, 0.2f, 2, {9}};
  const std::vector<std::pair<uint32_t, float>> dangling = {{40, 0.05f}, {3, 0.01f}};
  ASSERT_TRUE(DecodeMeeting(RawWorldFrame({a, b}, dangling)).error.ok());

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const struct {
    const char* what;
    std::vector<uint8_t> bytes;
  } cases[] = {
      {"pages not ascending", RawWorldFrame({a, {0, 0.2f, 2, {9}}}, dangling)},
      {"targets not ascending", RawWorldFrame({{100, 0.1f, 3, {5, 0}}, b}, dangling)},
      {"dangling pages not ascending", RawWorldFrame({a, b}, {{40, 0.05f}, {0, 0.01f}})},
      {"empty targets", RawWorldFrame({{100, 0.1f, 3, {}}, b}, dangling)},
      {"more targets than out-degree", RawWorldFrame({{100, 0.1f, 1, {5, 2}}, b}, dangling)},
      {"negative score", RawWorldFrame({{100, -0.1f, 3, {5, 2}}, b}, dangling)},
      {"NaN score", RawWorldFrame({a, {20, nan, 2, {9}}}, dangling)},
      {"negative dangling score", RawWorldFrame({a, b}, {{40, -0.05f}, {3, 0.01f}})},
      {"NaN dangling score", RawWorldFrame({a, b}, {{40, 0.05f}, {3, nan}})},
  };
  for (const auto& c : cases) {
    const DecodedMeeting decoded = DecodeMeeting(c.bytes);
    EXPECT_EQ(decoded.error.code(), StatusCode::kCorruption) << c.what;
    EXPECT_TRUE(decoded.world.empty()) << c.what;
    EXPECT_EQ(decoded.frames_decoded, 0u) << c.what;
  }
}

TEST(MeetingCodecTest, EveryBitFlipOfAThreeFrameMessageIsRejected) {
  // Two score chunks and a world frame. The checksum is certain to catch a
  // flip anywhere outside the length fields; a flipped length runs past the
  // buffer or would need a 64-bit collision. So for this fixed message every
  // single-bit flip must be rejected; the property test only samples
  // positions.
  const graph::Subgraph fragment = MakeFragment(kPagesPerChunk + 6);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), MakeScores(kPagesPerChunk + 6), bytes);
  EncodeWorldKnowledge(
      MakeWorld({{20, 3, 0.01, {3, 12}}, {41, 1, 0.005, {7}}}, {{50, 0.002}}), bytes);
  const DecodedMeeting clean = DecodeMeeting(bytes);
  ASSERT_TRUE(clean.error.ok()) << clean.error.ToString();
  ASSERT_EQ(clean.frames_decoded, 3u);

  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = bytes;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeMeeting(corrupt).error.ok())
          << "flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(MeetingCodecTest, GoldenMessageBytesAreFrozen) {
  // A fixed message — three score-list pages (one dangling) and two world
  // entries plus a dangling record — pinned byte for byte, checksums
  // included, so any change to the wire format shows here.
  const graph::Subgraph fragment =
      graph::Subgraph::FromKnowledge({3, 7, 12}, {{7, 40}, {}, {3, 7, 99}});
  std::vector<uint8_t> bytes;
  const std::vector<double> scores = {0.125, 0.0625, 0.25};
  EncodeScoreList(fragment.Table(), scores, bytes);
  EncodeWorldKnowledge(
      MakeWorld({{20, 3, 0.01, {3, 12}}, {41, 1, 0.005, {7}}}, {{50, 0.002}}), bytes);

  const std::vector<uint8_t> golden = {
      0x4a, 0x58, 0x02, 0x01, 0x19, 0x00, 0x00, 0x00, 0x5c, 0xe1, 0x47, 0x6d,
      0x80, 0xd4, 0x6c, 0xcc, 0x00, 0x03, 0x03, 0x00, 0x00, 0x00, 0x3e, 0x02,
      0x07, 0x21, 0x04, 0x00, 0x00, 0x80, 0x3d, 0x00, 0x05, 0x00, 0x00, 0x80,
      0x3e, 0x03, 0x03, 0x04, 0x5c, 0x4a, 0x58, 0x02, 0x02, 0x18, 0x00, 0x00,
      0x00, 0x72, 0xbd, 0x95, 0x2d, 0x8b, 0xb8, 0xc2, 0x9e, 0x02, 0x14, 0x0a,
      0xd7, 0x23, 0x3c, 0x03, 0x02, 0x03, 0x09, 0x15, 0x0a, 0xd7, 0xa3, 0x3b,
      0x01, 0x01, 0x07, 0x01, 0x32, 0x6e, 0x12, 0x03, 0x3b};
  EXPECT_EQ(bytes, golden);

  // The two frames and their checksums.
  const std::vector<std::pair<MessageType, uint64_t>> frames = {
      {MessageType::kScoreChunk, 0xcc6cd4806d47e15cULL},
      {MessageType::kWorldKnowledge, 0x9ec2b88b2d95bd72ULL}};
  size_t offset = 0;
  for (const auto& [type, checksum] : frames) {
    const uint8_t* header = golden.data() + offset;
    FrameView frame;
    ASSERT_TRUE(ParseFrame(golden, offset, frame).ok());
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(ComputeFrameChecksum(header, frame.payload), checksum);
  }
  EXPECT_EQ(offset, golden.size());
}

}  // namespace
}  // namespace wire
}  // namespace jxp
