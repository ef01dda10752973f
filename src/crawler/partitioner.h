#ifndef JXP_CRAWLER_PARTITIONER_H_
#define JXP_CRAWLER_PARTITIONER_H_

#include <vector>

#include "crawler/thematic_crawler.h"

namespace jxp {
namespace crawler {

/// Options for the crawl-based assignment of pages to peers.
struct PartitionOptions {
  /// Peers per category (the paper runs 10 per category).
  size_t peers_per_category = 10;
  /// Per-peer crawler options.
  CrawlerOptions crawler;
  /// Autonomous peers have very different crawl capacities: each peer's
  /// page budget is crawler.max_pages scaled by a log-uniform factor in
  /// [1/budget_spread, budget_spread]. 1.0 = identical budgets; the paper's
  /// collections show a ~20x size range between the biggest and smallest
  /// peers (Table 1).
  double budget_spread = 1.0;
};

/// The paper's Section 6.1 setup: peers_per_category autonomous thematic
/// crawlers per category. Fragments overlap arbitrarily and jointly cover
/// the collection, as the paper's collections do (they *are* the union of
/// the peers' crawls): every page left uncovered by all crawls is appended
/// to a random peer of its own category. Returns one page list per peer
/// (num_categories * peers_per_category entries, grouped by category).
std::vector<std::vector<graph::PageId>> CrawlBasedPartition(
    const graph::CategorizedGraph& collection, const PartitionOptions& options, Random& rng);

/// The paper's Section 6.3 setup: each category's page set is split into
/// `num_fragments` equal fragments; one peer is created per fragment index,
/// hosting `fragments_per_peer` consecutive fragments (mod num_fragments) of
/// its category — e.g. 4 fragments with 3 hosted gives 40 peers over 10
/// categories with high same-topic overlap.
std::vector<std::vector<graph::PageId>> FragmentSplitPartition(
    const graph::CategorizedGraph& collection, size_t num_fragments,
    size_t fragments_per_peer, Random& rng);

}  // namespace crawler
}  // namespace jxp

#endif  // JXP_CRAWLER_PARTITIONER_H_
