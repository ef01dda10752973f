#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/hash.h"

namespace jxp {
namespace graph {

namespace {

/// Geometric-like draw with the given mean >= 1: returns 1 + Geometric(p)
/// where p = 1/mean, capped to keep single nodes from dominating.
size_t DrawOutDegree(double mean, Random& rng) {
  if (mean <= 1.0) return 1;
  const double p = 1.0 / mean;
  size_t k = 1;
  // Inverse-CDF sampling of the geometric part.
  const double u = rng.NextDouble();
  k += static_cast<size_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
  return std::min<size_t>(k, static_cast<size_t>(mean * 16) + 8);
}

}  // namespace

Graph BarabasiAlbert(size_t num_nodes, size_t out_degree, Random& rng) {
  JXP_CHECK_GE(num_nodes, out_degree + 1);
  GraphBuilder builder(num_nodes);
  // `pool` holds one entry per (in-)edge endpoint plus one per node, so a
  // uniform draw from it is proportional to in-degree + 1.
  std::vector<PageId> pool;
  pool.reserve(num_nodes * (out_degree + 1));
  // Seed clique among the first out_degree + 1 nodes.
  const size_t seed_count = out_degree + 1;
  for (PageId u = 0; u < seed_count; ++u) {
    pool.push_back(u);
    for (PageId v = 0; v < seed_count; ++v) {
      if (u == v) continue;
      builder.AddEdge(u, v);
      pool.push_back(v);
    }
  }
  for (PageId u = static_cast<PageId>(seed_count); u < num_nodes; ++u) {
    std::unordered_set<PageId> targets;
    while (targets.size() < out_degree) {
      const PageId t = pool[rng.NextBounded(pool.size())];
      if (t != u) targets.insert(t);
    }
    for (PageId t : targets) {
      builder.AddEdge(u, t);
      pool.push_back(t);
    }
    pool.push_back(u);
  }
  return builder.Build();
}

CategorizedGraph GenerateWebGraph(const WebGraphParams& params, Random& rng) {
  JXP_CHECK_GE(params.num_categories, 1u);
  JXP_CHECK_GE(params.num_nodes, static_cast<size_t>(params.num_categories) * 4);
  JXP_CHECK_GE(params.mean_out_degree, 1.0);
  JXP_CHECK_GE(params.copy_probability, 0.0);
  JXP_CHECK_LE(params.copy_probability, 1.0);
  JXP_CHECK_GE(params.intra_category_probability, 0.0);
  JXP_CHECK_LE(params.intra_category_probability, 1.0);

  CategorizedGraph out;
  out.num_categories = params.num_categories;
  out.category.resize(params.num_nodes);
  // Balanced category assignment with randomized order: category sizes
  // differ by at most one, as in the paper's "10 peers per category" setup.
  for (size_t p = 0; p < params.num_nodes; ++p) {
    out.category[p] = static_cast<CategoryId>(p % params.num_categories);
  }
  {
    // Shuffle labels so categories are not correlated with page age.
    std::vector<CategoryId>& cats = out.category;
    rng.Shuffle(cats);
  }

  GraphBuilder builder(params.num_nodes);
  // Per-category and global pools of past link *targets*; drawing uniformly
  // from a pool implements the copy/preferential step.
  std::vector<std::vector<PageId>> category_pool(params.num_categories);
  std::vector<PageId> global_pool;
  // Per-category list of already-created nodes, for uniform (non-copy) picks.
  std::vector<std::vector<PageId>> category_nodes(params.num_categories);
  std::vector<PageId> all_nodes;

  for (PageId u = 0; u < params.num_nodes; ++u) {
    const CategoryId cat = out.category[u];
    if (!all_nodes.empty()) {
      const size_t degree = DrawOutDegree(params.mean_out_degree, rng);
      for (size_t k = 0; k < degree; ++k) {
        const bool intra = rng.NextBool(params.intra_category_probability) &&
                           !category_nodes[cat].empty();
        const std::vector<PageId>& pool = intra ? category_pool[cat] : global_pool;
        const std::vector<PageId>& nodes = intra ? category_nodes[cat] : all_nodes;
        PageId target;
        if (rng.NextBool(params.copy_probability) && !pool.empty()) {
          target = pool[rng.NextBounded(pool.size())];
        } else {
          target = nodes[rng.NextBounded(nodes.size())];
        }
        if (target == u) continue;
        builder.AddEdge(u, target);
        category_pool[out.category[target]].push_back(target);
        global_pool.push_back(target);
      }
    }
    category_nodes[cat].push_back(u);
    all_nodes.push_back(u);
  }
  out.graph = builder.Build();
  return out;
}

}  // namespace graph
}  // namespace jxp
