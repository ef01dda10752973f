#ifndef JXP_CRAWLER_THEMATIC_CRAWLER_H_
#define JXP_CRAWLER_THEMATIC_CRAWLER_H_

#include <vector>

#include "common/random.h"
#include "graph/generators.h"

namespace jxp {
namespace crawler {

/// Options of the simulated focused crawler (paper Section 6.1).
struct CrawlerOptions {
  /// Crawl budget: stop after indexing this many pages.
  size_t max_pages = 600;
  /// BFS depth cap ("up to a certain predefined depth").
  size_t max_depth = 6;
};

/// Simulates one peer's thematic crawl: breadth-first from five random seeds
/// of `category`, fetching pages along links; links of an off-category page
/// are followed only on a fair coin flip, as in the paper. Returns the set of
/// crawled pages (the peer's fragment), in crawl order.
std::vector<graph::PageId> ThematicCrawl(const graph::CategorizedGraph& collection,
                                         graph::CategoryId category,
                                         const CrawlerOptions& options, Random& rng);

}  // namespace crawler
}  // namespace jxp

#endif  // JXP_CRAWLER_THEMATIC_CRAWLER_H_
