#include "qp/compressed_index.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "qp/flat_u32_map.h"

namespace jxp {
namespace qp {
namespace {

struct FreezeFixture {
  FreezeFixture() {
    Random rng(51);
    graph::WebGraphParams params;
    params.num_nodes = 800;
    params.num_categories = 4;
    collection = graph::GenerateWebGraph(params, rng);
    search::CorpusOptions coptions;
    coptions.vocabulary_size = 3000;
    coptions.category_vocab_size = 400;
    corpus = search::Corpus::Generate(collection, coptions, 52);
    index = std::make_unique<search::PeerIndex>(3);
    for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
      index->AddDocument(corpus.DocumentFor(p));
      jxp_scores[p] = 1.0 / (1.0 + static_cast<double>(p));
    }
  }

  graph::CategorizedGraph collection;
  search::Corpus corpus;
  std::unique_ptr<search::PeerIndex> index;
  std::unordered_map<graph::PageId, double> jxp_scores;
};

TEST(CompressedIndexTest, FreezePreservesEveryPosting) {
  FreezeFixture fx;
  const CompressedPeerIndex frozen =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, {}, CompressedIndexOptions{});
  EXPECT_EQ(frozen.owner(), fx.index->owner());
  EXPECT_EQ(frozen.num_terms(), fx.index->postings().size());

  size_t total_postings = 0;
  for (const auto& [term, postings] : fx.index->postings()) {
    const CompressedPeerIndex::TermList* entry = frozen.ListFor(term);
    ASSERT_NE(entry, nullptr) << "term " << term;
    ASSERT_EQ(entry->list.num_postings(), postings.size());
    BlockPostingList::Cursor cursor = entry->list.OpenCursor(nullptr);
    size_t i = 0;
    for (cursor.Next(); cursor.docid() != BlockPostingList::kEndDocid; cursor.Next()) {
      EXPECT_EQ(cursor.docid(), postings[i].page);
      EXPECT_EQ(cursor.freq(), postings[i].tf);
      ++i;
    }
    EXPECT_EQ(i, postings.size());
    total_postings += postings.size();
  }
  EXPECT_EQ(frozen.stats().num_postings, total_postings);
}

TEST(CompressedIndexTest, IdfMatchesEngineFormula) {
  FreezeFixture fx;
  const CompressedPeerIndex frozen =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, {}, CompressedIndexOptions{});
  const double n = static_cast<double>(fx.corpus.NumDocuments());
  for (const auto& [term, postings] : fx.index->postings()) {
    const CompressedPeerIndex::TermList* entry = frozen.ListFor(term);
    ASSERT_NE(entry, nullptr);
    const double expected =
        std::log(n / static_cast<double>(fx.corpus.DocumentFrequency(term)));
    // Bit-identical, not just close: the qp scorers must reproduce
    // MinervaEngine's doubles exactly.
    EXPECT_EQ(entry->idf, expected) << "term " << term;
  }
}

TEST(CompressedIndexTest, PriorsAreExactAndBounded) {
  FreezeFixture fx;
  CompressedIndexOptions options;
  options.prior_weight = 0.4;
  const CompressedPeerIndex frozen =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, fx.jxp_scores, options);
  EXPECT_EQ(frozen.prior_weight(), 0.4);
  for (const auto& [page, score] : fx.jxp_scores) {
    EXPECT_EQ(frozen.PriorOf(page), score);
    EXPECT_GE(static_cast<double>(frozen.max_prior_bound()), score);
  }
  EXPECT_EQ(frozen.PriorOf(graph::kInvalidPage), 0.0);
}

TEST(CompressedIndexTest, UnknownTermHasNoList) {
  FreezeFixture fx;
  const CompressedPeerIndex frozen =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, {}, CompressedIndexOptions{});
  EXPECT_EQ(frozen.ListFor(static_cast<search::TermId>(999999)), nullptr);
}

TEST(CompressedIndexTest, CompresssedBytesPerPostingBeatBaseline) {
  FreezeFixture fx;
  const CompressedPeerIndex frozen =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, {}, CompressedIndexOptions{});
  const CompressedIndexStats& stats = frozen.stats();
  EXPECT_GT(stats.num_postings, 0u);
  EXPECT_LT(stats.CompressedBytesPerPosting(),
            CompressedIndexStats::kUncompressedBytesPerPosting);
}

TEST(CompressedIndexTest, FreezeIsDeterministic) {
  FreezeFixture fx;
  CompressedIndexOptions options;
  options.prior_weight = 0.4;
  const CompressedPeerIndex a =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, fx.jxp_scores, options);
  const CompressedPeerIndex b =
      CompressedPeerIndex::Freeze(*fx.index, fx.corpus, fx.jxp_scores, options);
  EXPECT_EQ(a.stats().num_postings, b.stats().num_postings);
  EXPECT_EQ(a.stats().num_blocks, b.stats().num_blocks);
  EXPECT_EQ(a.stats().docid_bytes, b.stats().docid_bytes);
  EXPECT_EQ(a.stats().freq_bytes, b.stats().freq_bytes);
  EXPECT_EQ(a.max_prior_bound(), b.max_prior_bound());
}

TEST(CompressedIndexStatsTest, MergeAccumulates) {
  CompressedIndexStats a;
  a.num_postings = 10;
  a.docid_bytes = 15;
  a.freq_bytes = 10;
  a.block_metadata_bytes = 22;
  CompressedIndexStats b;
  b.num_postings = 30;
  b.docid_bytes = 45;
  b.freq_bytes = 30;
  b.block_metadata_bytes = 22;
  a.MergeFrom(b);
  EXPECT_EQ(a.num_postings, 40u);
  EXPECT_DOUBLE_EQ(a.CompressedBytesPerPosting(), (60.0 + 40.0 + 44.0) / 40.0);
}

TEST(FlatU32MapTest, FindsEveryKeyUpToItsBudget) {
  EXPECT_EQ(FlatU32Map<double>().Find(0), nullptr);

  // A full budget: a consecutive run (a fragment's docids), a strided run,
  // and key 0.
  constexpr size_t kKeys = 200;
  FlatU32Map<double> map(kKeys);
  std::vector<uint32_t> keys;
  for (uint32_t i = 0; i < kKeys / 2; ++i) keys.push_back(i);
  for (uint32_t i = 1; i <= kKeys / 2; ++i) keys.push_back(i << 20);
  for (const uint32_t key : keys) EXPECT_TRUE(map.TryInsert(key, key + 0.5));
  EXPECT_FALSE(map.TryInsert(7, -1.0));  // Present: the first value stays.
  EXPECT_EQ(map.size(), kKeys);
  for (const uint32_t key : keys) {
    const double* value = map.Find(key);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_EQ(*value, key + 0.5) << key;
  }
  EXPECT_EQ(map.Find(kKeys), nullptr);
  EXPECT_EQ(map.Find(FlatU32Map<double>::kEmptyKey), nullptr);
}

}  // namespace
}  // namespace qp
}  // namespace jxp
