#include "crawler/thematic_crawler.h"

#include <deque>
#include <unordered_set>

namespace jxp {
namespace crawler {
namespace {

/// Number of random seed pages, drawn from the peer's category.
constexpr size_t kNumSeeds = 5;
/// Probability of following the links of an off-category page (the paper
/// flips a fair coin).
constexpr double kFollowOffCategoryProbability = 0.5;

}  // namespace

std::vector<graph::PageId> ThematicCrawl(const graph::CategorizedGraph& collection,
                                         graph::CategoryId category,
                                         const CrawlerOptions& options, Random& rng) {
  JXP_CHECK_LT(category, collection.num_categories);
  const graph::Graph& g = collection.graph;

  // Candidate seeds: all pages of the category.
  std::vector<graph::PageId> category_pages;
  for (graph::PageId p = 0; p < g.NumNodes(); ++p) {
    if (collection.category[p] == category) category_pages.push_back(p);
  }
  JXP_CHECK(!category_pages.empty()) << "category " << category << " has no pages";

  std::vector<graph::PageId> crawled;
  std::unordered_set<graph::PageId> visited;
  std::deque<std::pair<graph::PageId, size_t>> frontier;  // (page, depth)

  const size_t num_seeds = std::min(kNumSeeds, category_pages.size());
  for (size_t i : rng.SampleWithoutReplacement(category_pages.size(), num_seeds)) {
    const graph::PageId seed = category_pages[i];
    if (visited.insert(seed).second) frontier.emplace_back(seed, 0);
  }

  while (!frontier.empty() && crawled.size() < options.max_pages) {
    const auto [page, depth] = frontier.front();
    frontier.pop_front();
    crawled.push_back(page);
    if (depth >= options.max_depth) continue;
    // Follow this page's links: always for on-category pages, with a coin
    // flip for off-category ones.
    const bool follow = collection.category[page] == category ||
                        rng.NextBool(kFollowOffCategoryProbability);
    if (!follow) continue;
    for (graph::PageId next : g.OutNeighbors(page)) {
      if (visited.insert(next).second) frontier.emplace_back(next, depth + 1);
    }
  }
  return crawled;
}

}  // namespace crawler
}  // namespace jxp
