#include "wire/meeting_codec.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitpack.h"
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

/// Writes `values` as a column of areas (the codec's own area encoder).
void PutColumn(ByteWriter& writer, const std::vector<uint32_t>& values) {
  for (size_t begin = 0; begin < values.size(); begin += kAreaValues) {
    writer.PutArea(values.data() + begin, std::min(kAreaValues, values.size() - begin));
  }
}

/// A kScoreChunk payload spelled column by column, so that it can break any
/// count or id rule: three counts, page gaps − 1, scores, degrees, and the
/// successor runs (the first successor of each page with any, then the
/// others as gaps − 1).
struct RawChunk {
  uint32_t first_index = 0;
  uint32_t count = 0;
  uint32_t num_successors = 0;
  std::vector<uint32_t> page_gaps;
  std::vector<float> scores;
  std::vector<uint32_t> degrees;
  std::vector<uint32_t> successor_heads;
  std::vector<uint32_t> successor_gaps;
};

std::vector<uint8_t> RawChunkPayload(const RawChunk& chunk) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(chunk.first_index);
  writer.PutVarint32(chunk.count);
  writer.PutVarint32(chunk.num_successors);
  PutColumn(writer, chunk.page_gaps);
  for (float score : chunk.scores) writer.PutFloat(score);
  PutColumn(writer, chunk.degrees);
  PutColumn(writer, chunk.successor_heads);
  PutColumn(writer, chunk.successor_gaps);
  return payload;
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
  // The second chunk's pages and scores parse, its degrees miss the
  // successor count: the frame is rejected and the page table keeps
  // exactly the first chunk.
  const graph::Subgraph fragment = MakeFragment(10);
  std::vector<uint8_t> bytes;
  EncodeScoreList(fragment.Table(), MakeScores(10), bytes);
  // Pages 30 and 31 (gaps − 1 from page 27), one successor, two declared.
  AppendFrame(MessageType::kScoreChunk,
              RawChunkPayload({10, 2, 2, {2, 0}, {0.01f, 0.01f}, {1, 0}, {31}, {}}), bytes);

  const DecodedMeeting decoded = DecodeMeeting(bytes);
  EXPECT_EQ(decoded.error.code(), StatusCode::kCorruption);
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
  // A kScoreChunk whose counts claim far more pages or successors than the
  // payload could hold must be rejected up front (no multi-GB reserve on
  // garbage).
  for (const auto& [count, num_successors] :
       {std::pair<uint32_t, uint32_t>{0x0fffffff, 0}, {1, 0x80000000u}}) {
    std::vector<uint8_t> bytes;
    AppendFrame(MessageType::kScoreChunk,
                RawChunkPayload({0, count, num_successors, {3}, {0.5f}, {0}, {}, {}}), bytes);
    const DecodedMeeting out = DecodeMeeting(bytes);
    EXPECT_EQ(out.error, Status::Corruption("bad frame payload: chunk counts exceed payload"))
        << count << " pages, " << num_successors << " successors";
    EXPECT_TRUE(out.page_table.pages.empty());
  }
}

TEST(MeetingCodecTest, NonFiniteAndNegativeScoresRejected) {
  for (const float bad : {-0.25f, std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()}) {
    std::vector<uint8_t> bytes;
    AppendFrame(MessageType::kScoreChunk, RawChunkPayload({0, 1, 0, {3}, {bad}, {0}, {}, {}}),
                bytes);
    EXPECT_EQ(DecodeMeeting(bytes).error,
              Status::Corruption("bad frame payload: invalid page score"))
        << "score " << bad;
  }
}

/// A kWorldKnowledge payload spelled column by column, so that it can
/// break any count, id or score rule the layout can still express.
struct RawWorld {
  uint32_t num_entries = 0;
  uint32_t num_targets = 0;
  uint32_t num_dangling = 0;
  std::vector<uint32_t> page_gaps;
  std::vector<float> scores;
  std::vector<uint32_t> target_counts_minus_one;
  std::vector<uint32_t> out_degree_slack;
  /// Each entry's first target, absolute.
  std::vector<uint32_t> target_heads;
  /// Each entry's other targets, as gaps − 1.
  std::vector<uint32_t> target_gaps;
  std::vector<uint32_t> dangling_gaps;
  std::vector<float> dangling_scores;
};

std::vector<uint8_t> RawWorldPayload(const RawWorld& world) {
  std::vector<uint8_t> payload;
  ByteWriter writer(payload);
  writer.PutVarint32(world.num_entries);
  writer.PutVarint32(world.num_targets);
  writer.PutVarint32(world.num_dangling);
  PutColumn(writer, world.page_gaps);
  for (float score : world.scores) writer.PutFloat(score);
  PutColumn(writer, world.target_counts_minus_one);
  PutColumn(writer, world.out_degree_slack);
  PutColumn(writer, world.target_heads);
  PutColumn(writer, world.target_gaps);
  PutColumn(writer, world.dangling_gaps);
  for (float score : world.dangling_scores) writer.PutFloat(score);
  return payload;
}

std::vector<uint8_t> WorldFrame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes;
  AppendFrame(MessageType::kWorldKnowledge, payload, bytes);
  return bytes;
}

TEST(MeetingCodecTest, WorldFrameElementInvariantsAreEnforcedByTheDecoder) {
  // core::WorldNode adopts decoded columns checking only their shape, so
  // the decoder must reject every element the WorldColumns invariants rule
  // out. The layout cannot spell a non-ascending id, an empty target list
  // or more targets than the out-degree; every rule it can still break has
  // one row here. The well-formed frame decodes; each broken one is
  // Corruption for the stated reason.
  //
  // Entries: page 100 (score 0.1, out-degree 3, targets 5 and 8) and page
  // 121 (score 0.2, out-degree 2, target 9); dangling pages 40 and 44.
  const RawWorld good{2,      3,      2,   {100, 20}, {0.1f, 0.2f},  {1, 0},
                      {1, 1}, {5, 9}, {2}, {40, 3},   {0.05f, 0.01f}};
  const DecodedMeeting decoded = DecodeMeeting(WorldFrame(RawWorldPayload(good)));
  ASSERT_TRUE(decoded.error.ok()) << decoded.error.ToString();
  EXPECT_EQ(decoded.world, MakeWorld({{100, 3, 0.1f, {5, 8}}, {121, 2, 0.2f, {9}}},
                                     {{40, 0.05f}, {44, 0.01f}}));

  const auto with = [&good](auto mutate) {
    RawWorld world = good;
    mutate(world);
    return RawWorldPayload(world);
  };
  // Good frames with their dangling records dropped, so that the target
  // gaps are the last area of the payload.
  const RawWorld no_dangling{2,      3,      0,   {100, 20}, {0.1f, 0.2f}, {1, 0},
                             {1, 1}, {5, 9}, {2}, {},        {}};
  // One entry whose seven target gaps take the VByte fallback (one 29-bit
  // gap among zeros), again as the last area.
  const RawWorld vbyte_tail{1,   8,   0,
                            {100}, {0.1f}, {7}, {0}, {3}, {0x10000000u, 0, 0, 0, 0, 0, 0},
                            {},    {}};
  ASSERT_TRUE(DecodeMeeting(WorldFrame(RawWorldPayload(no_dangling))).error.ok());
  ASSERT_TRUE(DecodeMeeting(WorldFrame(RawWorldPayload(vbyte_tail))).error.ok());
  std::vector<uint8_t> truncated_packed = RawWorldPayload(no_dangling);
  truncated_packed.pop_back();
  std::vector<uint8_t> truncated_vbyte = RawWorldPayload(vbyte_tail);
  ASSERT_EQ(truncated_vbyte[truncated_vbyte.size() - 12], 0u);  // The VByte marker.
  truncated_vbyte.pop_back();
  std::vector<uint8_t> wide = RawWorldPayload(good);
  ASSERT_EQ(wide[3], 7u);  // The page area's width byte follows the counts.
  wide[3] = 33;
  std::vector<uint8_t> trailing = RawWorldPayload(good);
  trailing.push_back(0);

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const struct {
    const char* what;
    std::vector<uint8_t> payload;
    const char* error;
  } cases[] = {
      {"page gap past 2^32", with([](RawWorld& w) { w.page_gaps[1] = 0xffffffffu; }),
       "world page id past 2^32 - 1"},
      {"target gap past 2^32", with([](RawWorld& w) { w.target_gaps[0] = 0xfffffffeu; }),
       "world target id past 2^32 - 1"},
      {"first target past 2^32 after its gaps",
       with([](RawWorld& w) { w.target_heads[0] = 0xffffffffu; }),
       "world target id past 2^32 - 1"},
      {"fewer targets than entries", with([](RawWorld& w) { w.num_targets = 1; }),
       "fewer targets than entries"},
      {"dangling gap past 2^32", with([](RawWorld& w) { w.dangling_gaps[1] = 0xffffffffu; }),
       "dangling page id past 2^32 - 1"},
      {"out-degree slack overflow", with([](RawWorld& w) { w.out_degree_slack[0] = 0xfffffffeu; }),
       "world out-degree past 2^32 - 1"},
      {"target counts above the target total",
       with([](RawWorld& w) { w.target_counts_minus_one = {2, 0}; }),
       "target counts miss the target count"},
      {"target counts below the target total",
       with([](RawWorld& w) {
         w.num_targets = 4;
         w.target_gaps.push_back(1);
       }),
       "target counts miss the target count"},
      {"width above 32", wide, "area width above 32"},
      {"truncated packed area", truncated_packed, "truncated packed area"},
      {"truncated VByte tail", truncated_vbyte, "truncated or overlong VByte area"},
      {"trailing bytes", trailing, "trailing bytes in world frame"},
      {"counts the payload cannot hold", with([](RawWorld& w) { w.num_targets = 1000; }),
       "world counts exceed payload"},
      {"no entries and no dangling records", RawWorldPayload({}), "empty world frame"},
      {"negative score", with([](RawWorld& w) { w.scores[0] = -0.1f; }), "invalid world score"},
      {"NaN score", with([nan](RawWorld& w) { w.scores[1] = nan; }), "invalid world score"},
      {"infinite score", with([inf](RawWorld& w) { w.scores[1] = inf; }),
       "invalid world score"},
      {"negative dangling score", with([](RawWorld& w) { w.dangling_scores[0] = -0.05f; }),
       "invalid dangling score"},
      {"NaN dangling score", with([nan](RawWorld& w) { w.dangling_scores[1] = nan; }),
       "invalid dangling score"},
  };
  for (const auto& c : cases) {
    const DecodedMeeting decoded = DecodeMeeting(WorldFrame(c.payload));
    EXPECT_EQ(decoded.error.code(), StatusCode::kCorruption) << c.what;
    EXPECT_NE(decoded.error.message().find(c.error), std::string::npos)
        << c.what << ": " << decoded.error.ToString();
    EXPECT_TRUE(decoded.world.empty()) << c.what;
    EXPECT_EQ(decoded.frames_decoded, 0u) << c.what;
  }
}

TEST(MeetingCodecTest, HugeTargetCountIsRejectedBeforeAllocating) {
  // A payload of under 20 bytes declaring 2^31 targets. The decoder checks every count
  // against the fewest bytes its column can take (a width byte per 128
  // values and at least one bit per value) before it sizes a single
  // column, so nothing is allocated for the claim.
  const std::vector<uint8_t> payload =
      RawWorldPayload({1, 0x80000000u, 0, {100}, {0.1f}, {0}, {0}, {5}, {}, {}, {}});
  ASSERT_LT(payload.size(), 20u);
  const DecodedMeeting decoded = DecodeMeeting(WorldFrame(payload));
  EXPECT_EQ(decoded.error, Status::Corruption("bad frame payload: world counts exceed payload"));
  EXPECT_TRUE(decoded.world.empty());
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
      0x4a, 0x58, 0x03, 0x01, 0x1a, 0x00, 0x00, 0x00, 0x4c, 0xb1, 0xb6, 0x11,
      0x10, 0xf9, 0xb4, 0x0d, 0x00, 0x03, 0x05, 0x03, 0x1b, 0x01, 0x00, 0x00,
      0x00, 0x3e, 0x00, 0x00, 0x80, 0x3d, 0x00, 0x00, 0x80, 0x3e, 0x02, 0x32,
      0x03, 0x1f, 0x07, 0xa0, 0xc1, 0x16, 0x4a, 0x58, 0x03, 0x02, 0x1c, 0x00,
      0x00, 0x00, 0x5d, 0x19, 0xbc, 0x28, 0xd0, 0x40, 0xf0, 0xe7, 0x02, 0x03,
      0x01, 0x05, 0x94, 0x02, 0x0a, 0xd7, 0x23, 0x3c, 0x0a, 0xd7, 0xa3, 0x3b,
      0x01, 0x01, 0x01, 0x01, 0x03, 0x3b, 0x04, 0x08, 0x06, 0x32, 0x6e, 0x12,
      0x03, 0x3b};
  EXPECT_EQ(bytes, golden);

  // The two frames and their checksums.
  const std::vector<std::pair<MessageType, uint64_t>> frames = {
      {MessageType::kScoreChunk, 0x0db4f91011b6b14cULL},
      {MessageType::kWorldKnowledge, 0xe7f040d028bc195dULL}};
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
