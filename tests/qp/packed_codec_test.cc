#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitpack.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/varint.h"
#include "qp/block_posting_list.h"

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

TEST(PackedCodecTest, BitWidthCoversValueRange) {
  EXPECT_EQ(BitWidth32(0), 1u);
  EXPECT_EQ(BitWidth32(1), 1u);
  EXPECT_EQ(BitWidth32(2), 2u);
  EXPECT_EQ(BitWidth32(255), 8u);
  EXPECT_EQ(BitWidth32(256), 9u);
  EXPECT_EQ(BitWidth32(0xffffffffu), 32u);
}

TEST(PackedCodecTest, PackUnpackRoundTripsEveryWidth) {
  Random rng(31);
  for (uint32_t width = 1; width <= 32; ++width) {
    const uint64_t mask =
        width == 32 ? 0xffffffffull : ((1ull << width) - 1);
    for (size_t count : {1u, 7u, 8u, 13u, 64u, 129u}) {
      std::vector<uint32_t> values(count);
      for (uint32_t& v : values) {
        v = static_cast<uint32_t>(rng.NextUint64() & mask);
      }
      std::vector<uint8_t> bytes((count * width + 7) / 8);
      EXPECT_EQ(PackBits(values.data(), values.size(), width, bytes.data()),
                bytes.data() + bytes.size());

      std::vector<uint32_t> decoded(count);
      ASSERT_TRUE(
          UnpackBits(bytes.data(), bytes.size(), 0, count, width, decoded.data()))
          << "width " << width << " count " << count;
      EXPECT_EQ(decoded, values) << "width " << width << " count " << count;
    }
  }
}

TEST(PackedCodecTest, UnpackRejectsTruncatedBuffer) {
  std::vector<uint32_t> values(16, 0x1ffu);
  std::vector<uint8_t> bytes((values.size() * 9 + 7) / 8);
  PackBits(values.data(), values.size(), 9, bytes.data());
  std::vector<uint32_t> decoded(values.size());
  EXPECT_FALSE(
      UnpackBits(bytes.data(), bytes.size() - 1, 0, values.size(), 9, decoded.data()));
  EXPECT_TRUE(
      UnpackBits(bytes.data(), bytes.size(), 0, values.size(), 9, decoded.data()));
}

/// Bytes the VByte encoding of `values` takes (no width byte).
size_t VByteBytes(const std::vector<uint32_t>& values) {
  std::vector<uint8_t> bytes;
  for (uint32_t v : values) VByteEncode32(v, bytes);
  return bytes.size();
}

/// The docid deltas of `postings` (first delta from the implicit base 0).
std::vector<uint32_t> Deltas(const std::vector<PostingIn>& postings) {
  std::vector<uint32_t> deltas;
  uint32_t prev = 0;
  for (const PostingIn& p : postings) {
    deltas.push_back(p.docid - prev);
    prev = p.docid;
  }
  return deltas;
}

TEST(PackedCodecTest, PackedListReconstructsAllPostings) {
  const auto postings = MakePostings(1000, 11, 50);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  EXPECT_EQ(list.num_postings(), postings.size());

  BlockPostingList::Cursor cursor = list.OpenCursor(nullptr);
  size_t i = 0;
  for (cursor.Next(); cursor.docid() != BlockPostingList::kEndDocid; cursor.Next()) {
    ASSERT_LT(i, postings.size());
    EXPECT_EQ(cursor.docid(), postings[i].docid);
    EXPECT_EQ(cursor.freq(), postings[i].tf);
    ++i;
  }
  EXPECT_EQ(i, postings.size());
}

TEST(PackedCodecTest, CursorParityWithVByteAcrossSeeks) {
  // Next interleaved with NextGEQ jumps must surface exactly the input
  // postings, whether an area is packed or fell back to VByte.
  for (uint64_t seed : {3u, 17u, 91u}) {
    const auto postings = MakePostings(700, seed, 120);
    const BlockPostingList list = BlockPostingList::Build(postings, 64);

    BlockPostingList::Cursor cursor = list.OpenCursor(nullptr);
    Random rng(seed + 1);
    size_t pos = 0;
    cursor.Next();
    while (pos < postings.size()) {
      ASSERT_EQ(cursor.docid(), postings[pos].docid);
      ASSERT_EQ(cursor.freq(), postings[pos].tf);
      if (rng.NextBounded(4) == 0) {
        const uint32_t target =
            cursor.docid() + 1 + static_cast<uint32_t>(rng.NextBounded(900));
        const auto it = std::lower_bound(
            postings.begin() + static_cast<ptrdiff_t>(pos), postings.end(), target,
            [](const PostingIn& p, uint32_t t) { return p.docid < t; });
        ASSERT_EQ(cursor.NextGEQ(target), it != postings.end());
        pos = static_cast<size_t>(it - postings.begin());
      } else {
        cursor.Next();
        ++pos;
      }
    }
    EXPECT_EQ(cursor.docid(), BlockPostingList::kEndDocid);
  }
}

TEST(PackedCodecTest, FallsBackToVByteWhenSmaller) {
  // One huge delta forces a 30-bit lane width; the remaining small deltas
  // make VByte the smaller encoding for that block, so AppendArea must pick
  // the 0-marker fallback: the docid area is the VByte bytes plus the
  // marker, and it still decodes correctly.
  std::vector<PostingIn> postings;
  uint32_t docid = 0;
  for (size_t i = 0; i < 64; ++i) {
    PostingIn p;
    p.docid = docid;
    p.tf = 1;
    p.impact = 1.0;
    p.prior = 0.0;
    postings.push_back(p);
    docid += (i == 31) ? 0x20000000u : 1u;  // One 30-bit delta mid-block.
  }
  const BlockPostingList list = BlockPostingList::Build(postings, 64);
  EXPECT_EQ(list.docid_bytes(), VByteBytes(Deltas(postings)) + 1);

  BlockPostingList::Cursor cursor = list.OpenCursor(nullptr);
  size_t i = 0;
  for (cursor.Next(); cursor.docid() != BlockPostingList::kEndDocid; cursor.Next()) {
    ASSERT_LT(i, postings.size());
    EXPECT_EQ(cursor.docid(), postings[i].docid);
    ++i;
  }
  EXPECT_EQ(i, postings.size());
}

TEST(PackedCodecTest, PackedShrinksDenseLists) {
  // Dense small deltas pack into a few bits per value; the packed payload,
  // width bytes included, should beat byte-aligned VByte.
  const auto postings = MakePostings(2000, 5, 6);
  const BlockPostingList list = BlockPostingList::Build(postings, 128);
  EXPECT_LT(list.docid_bytes(), VByteBytes(Deltas(postings)));
}

TEST(PackedCodecTest, ListBytesArePinned) {
  // The area layout is shared with the meeting wire codec; these lists'
  // bytes are pinned so that a change to the shared encoder cannot move a
  // posting list's layout. Dense and sparse gaps, short blocks, and a
  // block with a 30-bit delta (the VByte fallback) and a 32-bit one.
  std::vector<PostingIn> huge = MakePostings(300, 23, 40);
  for (size_t i = 100; i < huge.size(); ++i) huge[i].docid += 0x20000000u;
  for (size_t i = 250; i < huge.size(); ++i) huge[i].docid += 0x9fff0000u;
  const struct {
    std::vector<PostingIn> postings;
    size_t block_size;
    uint64_t hash;
  } cases[] = {
      {MakePostings(1000, 11, 50), 128, 0x185c87889520126eULL},
      {MakePostings(2000, 5, 6), 128, 0x458de96372e45bcdULL},
      {MakePostings(700, 17, 120), 64, 0x06ccf41f1c38813bULL},
      {MakePostings(129, 3, 70000), 128, 0xb89d3b3504606a28ULL},
      {huge, 128, 0xff3e0fcf9d49a614ULL},
  };
  for (const auto& c : cases) {
    const BlockPostingList list = BlockPostingList::Build(c.postings, c.block_size);
    const std::span<const uint8_t> bytes = list.bytes();
    const uint64_t hash = Mix64(Fnv1aUpdate(kFnv1aOffset, bytes.data(), bytes.size()));
    EXPECT_EQ(hash, c.hash) << std::hex << hash << " over " << bytes.size() << " bytes";
  }
}

}  // namespace
}  // namespace qp
}  // namespace jxp
