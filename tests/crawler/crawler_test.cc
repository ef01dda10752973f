#include "crawler/partitioner.h"
#include "crawler/thematic_crawler.h"

#include <unordered_set>

#include <gtest/gtest.h>

namespace jxp {
namespace crawler {
namespace {

graph::CategorizedGraph SmallCollection(uint64_t seed = 42) {
  Random rng(seed);
  graph::WebGraphParams params;
  params.num_nodes = 1000;
  params.num_categories = 5;
  params.mean_out_degree = 5;
  return GenerateWebGraph(params, rng);
}

TEST(ThematicCrawlerTest, RespectsBudget) {
  const auto collection = SmallCollection();
  Random rng(1);
  CrawlerOptions options;
  options.max_pages = 50;
  const auto pages = ThematicCrawl(collection, 0, options, rng);
  EXPECT_LE(pages.size(), 50u);
  EXPECT_GT(pages.size(), 0u);
}

TEST(ThematicCrawlerTest, NoDuplicatePages) {
  const auto collection = SmallCollection();
  Random rng(2);
  CrawlerOptions options;
  options.max_pages = 200;
  const auto pages = ThematicCrawl(collection, 1, options, rng);
  std::unordered_set<graph::PageId> unique(pages.begin(), pages.end());
  EXPECT_EQ(unique.size(), pages.size());
}

TEST(ThematicCrawlerTest, FocusesOnOwnCategory) {
  const auto collection = SmallCollection();
  Random rng(3);
  CrawlerOptions options;
  options.max_pages = 300;
  const auto pages = ThematicCrawl(collection, 2, options, rng);
  size_t on_topic = 0;
  for (graph::PageId p : pages) {
    if (collection.category[p] == 2) ++on_topic;
  }
  // With 5 categories a random set would be ~20% on-topic; the focused
  // crawl must be far above that.
  EXPECT_GT(static_cast<double>(on_topic) / pages.size(), 0.5);
}

TEST(ThematicCrawlerTest, SeedsAreFromCategory) {
  const auto collection = SmallCollection();
  Random rng(4);
  CrawlerOptions options;
  options.max_pages = 5;
  options.max_depth = 0;  // Only seeds.
  const auto pages = ThematicCrawl(collection, 3, options, rng);
  for (graph::PageId p : pages) EXPECT_EQ(collection.category[p], 3u);
}

TEST(CrawlBasedPartitionTest, ShapeAndCoverage) {
  const auto collection = SmallCollection();
  Random rng(5);
  PartitionOptions options;
  options.peers_per_category = 3;
  options.crawler.max_pages = 120;
  const auto fragments = CrawlBasedPartition(collection, options, rng);
  ASSERT_EQ(fragments.size(), 15u);  // 5 categories x 3 peers.
  std::unordered_set<graph::PageId> covered;
  for (const auto& fragment : fragments) {
    EXPECT_FALSE(fragment.empty());
    covered.insert(fragment.begin(), fragment.end());
  }
  EXPECT_EQ(covered.size(), collection.graph.NumNodes());
}

TEST(CrawlBasedPartitionTest, FragmentsOverlap) {
  const auto collection = SmallCollection();
  Random rng(7);
  PartitionOptions options;
  options.peers_per_category = 4;
  options.crawler.max_pages = 200;
  const auto fragments = CrawlBasedPartition(collection, options, rng);
  // Same-category peers crawl from the same region: expect overlap.
  std::unordered_set<graph::PageId> first(fragments[0].begin(), fragments[0].end());
  size_t shared = 0;
  for (graph::PageId p : fragments[1]) shared += first.count(p);
  EXPECT_GT(shared, 0u);
}

TEST(FragmentSplitPartitionTest, PaperSection63Shape) {
  const auto collection = SmallCollection();
  Random rng(8);
  const auto peers = FragmentSplitPartition(collection, 4, 3, rng);
  ASSERT_EQ(peers.size(), 20u);  // 5 categories x 4 peers.
  // Each peer holds ~3/4 of its category (1000/5 = 200 pages per category).
  for (const auto& fragment : peers) {
    EXPECT_NEAR(static_cast<double>(fragment.size()), 150.0, 3.0);
  }
  // Same-category peers overlap on ~2/4 chunks pairwise... at least half.
  std::unordered_set<graph::PageId> p0(peers[0].begin(), peers[0].end());
  size_t shared = 0;
  for (graph::PageId p : peers[1]) shared += p0.count(p);
  EXPECT_GT(shared, peers[1].size() / 2);
  // The 4 peers of a category jointly cover it.
  std::unordered_set<graph::PageId> covered;
  for (int j = 0; j < 4; ++j) covered.insert(peers[j].begin(), peers[j].end());
  size_t category_size = 0;
  for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
    if (collection.category[p] == collection.category[peers[0][0]]) ++category_size;
  }
  EXPECT_EQ(covered.size(), category_size);
}

}  // namespace
}  // namespace crawler
}  // namespace jxp
