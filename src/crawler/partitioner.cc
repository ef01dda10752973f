#include "crawler/partitioner.h"

#include <cmath>
#include <unordered_set>

namespace jxp {
namespace crawler {

std::vector<std::vector<graph::PageId>> CrawlBasedPartition(
    const graph::CategorizedGraph& collection, const PartitionOptions& options, Random& rng) {
  JXP_CHECK_GT(options.peers_per_category, 0u);
  JXP_CHECK_GE(options.budget_spread, 1.0);
  std::vector<std::vector<graph::PageId>> fragments;
  fragments.reserve(collection.num_categories * options.peers_per_category);
  for (graph::CategoryId cat = 0; cat < collection.num_categories; ++cat) {
    for (size_t peer = 0; peer < options.peers_per_category; ++peer) {
      CrawlerOptions crawl = options.crawler;
      if (options.budget_spread > 1.0) {
        const double log_spread = std::log(options.budget_spread);
        const double factor = std::exp((2 * rng.NextDouble() - 1) * log_spread);
        crawl.max_pages = std::max<size_t>(
            10, static_cast<size_t>(static_cast<double>(crawl.max_pages) * factor));
      }
      fragments.push_back(ThematicCrawl(collection, cat, crawl, rng));
    }
  }
  std::unordered_set<graph::PageId> covered;
  for (const auto& fragment : fragments) covered.insert(fragment.begin(), fragment.end());
  for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
    if (covered.count(p)) continue;
    // Assign to a random peer of the page's own category.
    const size_t base = static_cast<size_t>(collection.category[p]) *
                        options.peers_per_category;
    const size_t peer = base + rng.NextBounded(options.peers_per_category);
    fragments[peer].push_back(p);
  }
  return fragments;
}

std::vector<std::vector<graph::PageId>> FragmentSplitPartition(
    const graph::CategorizedGraph& collection, size_t num_fragments,
    size_t fragments_per_peer, Random& rng) {
  JXP_CHECK_GT(num_fragments, 0u);
  JXP_CHECK_GT(fragments_per_peer, 0u);
  JXP_CHECK_LE(fragments_per_peer, num_fragments);

  std::vector<std::vector<graph::PageId>> peers;
  peers.reserve(collection.num_categories * num_fragments);
  for (graph::CategoryId cat = 0; cat < collection.num_categories; ++cat) {
    std::vector<graph::PageId> pages;
    for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
      if (collection.category[p] == cat) pages.push_back(p);
    }
    rng.Shuffle(pages);
    // Chunk boundaries.
    std::vector<std::vector<graph::PageId>> chunks(num_fragments);
    for (size_t i = 0; i < pages.size(); ++i) {
      chunks[i % num_fragments].push_back(pages[i]);
    }
    // One peer per fragment index, hosting fragments_per_peer consecutive
    // chunks starting at its index.
    for (size_t j = 0; j < num_fragments; ++j) {
      std::vector<graph::PageId> fragment;
      for (size_t o = 0; o < fragments_per_peer; ++o) {
        const auto& chunk = chunks[(j + o) % num_fragments];
        fragment.insert(fragment.end(), chunk.begin(), chunk.end());
      }
      peers.push_back(std::move(fragment));
    }
  }
  return peers;
}

}  // namespace crawler
}  // namespace jxp
