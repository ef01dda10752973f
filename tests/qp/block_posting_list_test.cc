#include "qp/block_posting_list.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace jxp {
namespace qp {
namespace {

using PostingIn = BlockPostingList::PostingIn;

std::vector<PostingIn> MakePostings(size_t count, uint64_t seed, uint32_t max_gap) {
  Random rng(seed);
  std::vector<PostingIn> postings;
  postings.reserve(count);
  uint32_t docid = static_cast<uint32_t>(rng.NextBounded(4));
  for (size_t i = 0; i < count; ++i) {
    PostingIn p;
    p.docid = docid;
    p.tf = 1 + static_cast<uint32_t>(rng.NextBounded(9));
    p.impact = (1.0 + std::log(static_cast<double>(p.tf))) * 2.3;
    p.prior = rng.NextDouble() * 1e-3;
    postings.push_back(p);
    docid += 1 + static_cast<uint32_t>(rng.NextBounded(max_gap));
  }
  return postings;
}

TEST(BlockPostingListTest, CursorReconstructsAllPostings) {
  const auto postings = MakePostings(1000, 11, 50);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  EXPECT_EQ(list.num_postings(), postings.size());
  EXPECT_EQ(list.num_blocks(), (postings.size() + 127) / 128);

  DecodeStats stats;
  BlockPostingList::Cursor cursor = list.OpenCursor(&stats);
  size_t i = 0;
  for (cursor.Next(); cursor.docid() != BlockPostingList::kEndDocid; cursor.Next()) {
    ASSERT_LT(i, postings.size());
    EXPECT_EQ(cursor.docid(), postings[i].docid);
    EXPECT_EQ(cursor.freq(), postings[i].tf);
    ++i;
  }
  EXPECT_EQ(i, postings.size());
  EXPECT_EQ(stats.postings_decoded, postings.size());
  EXPECT_EQ(stats.freqs_decoded, postings.size());
  EXPECT_EQ(stats.blocks_decoded, list.num_blocks());
  EXPECT_EQ(stats.blocks_skipped, 0u);
}

TEST(BlockPostingListTest, EmptyAndSingletonLists) {
  const BlockPostingList empty = BlockPostingList::Build({}, 128);
  EXPECT_EQ(empty.num_postings(), 0u);
  BlockPostingList::Cursor cursor = empty.OpenCursor(nullptr);
  cursor.Next();
  EXPECT_EQ(cursor.docid(), BlockPostingList::kEndDocid);
  EXPECT_FALSE(cursor.NextGEQ(0));

  // Docid 0 is legal for the first posting (delta 0 from the implicit base).
  const std::vector<PostingIn> one = {{0, 3, 1.0, 0.0}};
  const BlockPostingList single = BlockPostingList::Build(one, 128);
  BlockPostingList::Cursor c2 = single.OpenCursor(nullptr);
  c2.Next();
  EXPECT_EQ(c2.docid(), 0u);
  EXPECT_EQ(c2.freq(), 3u);
  c2.Next();
  EXPECT_EQ(c2.docid(), BlockPostingList::kEndDocid);
}

TEST(BlockPostingListTest, NextGEQMatchesLinearScan) {
  const auto postings = MakePostings(700, 12, 40);
  const BlockPostingList list = BlockPostingList::Build(postings, 64);
  Random rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t target = static_cast<uint32_t>(
        rng.NextBounded(postings.back().docid + 101));
    BlockPostingList::Cursor cursor = list.OpenCursor(nullptr);
    const bool found = cursor.NextGEQ(target);
    const auto it = std::lower_bound(
        postings.begin(), postings.end(), target,
        [](const PostingIn& p, uint32_t t) { return p.docid < t; });
    if (it == postings.end()) {
      EXPECT_FALSE(found);
      EXPECT_EQ(cursor.docid(), BlockPostingList::kEndDocid);
    } else {
      ASSERT_TRUE(found);
      EXPECT_EQ(cursor.docid(), it->docid);
      EXPECT_EQ(cursor.freq(), it->tf);
    }
  }
}

TEST(BlockPostingListTest, ForwardSeekSequenceIsConsistent) {
  const auto postings = MakePostings(900, 14, 30);
  const BlockPostingList list = BlockPostingList::Build(postings, 64);
  Random rng(15);
  // Strictly forward NextGEQ interleaved with Next, compared to the array.
  BlockPostingList::Cursor cursor = list.OpenCursor(nullptr);
  size_t pos = 0;
  cursor.Next();
  while (pos < postings.size()) {
    ASSERT_EQ(cursor.docid(), postings[pos].docid);
    if (rng.NextBounded(2) == 0) {
      cursor.Next();
      ++pos;
    } else {
      const size_t jump = pos + 1 + static_cast<size_t>(rng.NextBounded(120));
      if (jump >= postings.size()) break;
      const uint32_t target = postings[jump].docid;
      ASSERT_TRUE(cursor.NextGEQ(target));
      pos = jump;
    }
  }
}

TEST(BlockPostingListTest, SkipsBlocksWithoutDecoding) {
  const auto postings = MakePostings(128 * 20, 16, 20);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  DecodeStats stats;
  BlockPostingList::Cursor cursor = list.OpenCursor(&stats);
  // Jump straight to the last posting: every block but the last one should
  // be skipped on metadata alone.
  ASSERT_TRUE(cursor.NextGEQ(postings.back().docid));
  EXPECT_EQ(cursor.docid(), postings.back().docid);
  EXPECT_EQ(stats.blocks_decoded, 1u);
  EXPECT_EQ(stats.blocks_skipped, list.num_blocks() - 1);
  EXPECT_EQ(stats.postings_decoded, list.num_postings() - 128 * (list.num_blocks() - 1));
}

TEST(BlockPostingListTest, SeekBlockReportsTrueUpperBounds) {
  const auto postings = MakePostings(1000, 17, 25);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  Random rng(18);
  for (int trial = 0; trial < 100; ++trial) {
    const uint32_t target = static_cast<uint32_t>(
        rng.NextBounded(postings.back().docid + 1));
    DecodeStats stats;
    BlockPostingList::Cursor cursor = list.OpenCursor(&stats);
    float max_impact = -1;
    float max_prior = -1;
    if (!cursor.SeekBlock(target, &max_impact, &max_prior)) continue;
    // A shallow seek must not decompress anything.
    EXPECT_EQ(stats.blocks_decoded, 0u);
    EXPECT_EQ(stats.postings_decoded, 0u);
    // The bounds must dominate every posting of the block the target falls
    // into (pruning invariant: block upper bound >= any score inside).
    ASSERT_TRUE(cursor.NextGEQ(target));
    const uint32_t landed = cursor.docid();
    const auto it = std::lower_bound(
        postings.begin(), postings.end(), landed,
        [](const PostingIn& p, uint32_t t) { return p.docid < t; });
    ASSERT_NE(it, postings.end());
    EXPECT_GE(static_cast<double>(max_impact), it->impact);
    EXPECT_GE(static_cast<double>(max_prior), it->prior);
  }
}

TEST(BlockPostingListTest, NextAfterSeekBlockDecodesTheRightBlock) {
  const auto postings = MakePostings(128 * 4, 19, 10);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  BlockPostingList::Cursor cursor = list.OpenCursor(nullptr);
  float mi = 0;
  float mp = 0;
  // Seek into the third block, then advance with Next(): the cursor must
  // land on the first posting of that block, not stale state.
  const uint32_t target = postings[2 * 128 + 5].docid;
  ASSERT_TRUE(cursor.SeekBlock(target, &mi, &mp));
  cursor.Next();
  EXPECT_EQ(cursor.docid(), postings[2 * 128].docid);
}

TEST(BlockPostingListTest, MaximaAreUpperBounds) {
  const auto postings = MakePostings(500, 20, 60);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  double max_impact = 0;
  double max_prior = 0;
  for (const PostingIn& p : postings) {
    max_impact = std::max(max_impact, p.impact);
    max_prior = std::max(max_prior, p.prior);
  }
  EXPECT_GE(static_cast<double>(list.max_impact()), max_impact);
  EXPECT_GE(static_cast<double>(list.max_prior()), max_prior);
}

TEST(BlockPostingListTest, CompressesBelowUncompressedBaseline) {
  // Dense docids and small tfs: the realistic shape of per-peer lists.
  const auto postings = MakePostings(4000, 21, 8);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  const double bytes_per_posting =
      static_cast<double>(list.docid_bytes() + list.freq_bytes() + list.metadata_bytes()) /
      static_cast<double>(list.num_postings());
  EXPECT_LT(bytes_per_posting, 8.0);
}

}  // namespace
}  // namespace qp
}  // namespace jxp
