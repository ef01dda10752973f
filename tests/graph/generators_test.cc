#include "graph/generators.h"

#include <gtest/gtest.h>

#include "graph/stats.h"

namespace jxp {
namespace graph {
namespace {

TEST(BarabasiAlbertTest, StructureAndDegrees) {
  Random rng(2);
  const size_t out_degree = 3;
  const Graph g = BarabasiAlbert(200, out_degree, rng);
  EXPECT_EQ(g.NumNodes(), 200u);
  // Every non-seed node has exactly out_degree out-links.
  for (PageId u = static_cast<PageId>(out_degree + 1); u < g.NumNodes(); ++u) {
    EXPECT_EQ(g.OutDegree(u), out_degree) << "node " << u;
  }
  // No dangling nodes; preferential attachment produces a heavy tail: the
  // max in-degree far exceeds the mean.
  EXPECT_EQ(CountDangling(g), 0u);
  size_t max_in = 0;
  for (PageId u = 0; u < g.NumNodes(); ++u) max_in = std::max(max_in, g.InDegree(u));
  const double mean_in = static_cast<double>(g.NumEdges()) / g.NumNodes();
  EXPECT_GT(static_cast<double>(max_in), 4 * mean_in);
}

TEST(WebGraphTest, RespectsParameters) {
  Random rng(3);
  WebGraphParams params;
  params.num_nodes = 2000;
  params.num_categories = 10;
  params.mean_out_degree = 5.0;
  const CategorizedGraph cg = GenerateWebGraph(params, rng);
  EXPECT_EQ(cg.graph.NumNodes(), 2000u);
  EXPECT_EQ(cg.category.size(), 2000u);
  EXPECT_EQ(cg.num_categories, 10u);
  // Balanced categories (within one).
  std::vector<size_t> sizes(10, 0);
  for (CategoryId c : cg.category) {
    ASSERT_LT(c, 10u);
    sizes[c]++;
  }
  for (size_t s : sizes) EXPECT_EQ(s, 200u);
  // Mean out-degree in the right ballpark (dedup removes a few).
  const double mean = static_cast<double>(cg.graph.NumEdges()) / cg.graph.NumNodes();
  EXPECT_GT(mean, 3.0);
  EXPECT_LT(mean, 6.5);
}

TEST(WebGraphTest, TopicalLocality) {
  Random rng(4);
  WebGraphParams params;
  params.num_nodes = 3000;
  params.intra_category_probability = 0.8;
  const CategorizedGraph cg = GenerateWebGraph(params, rng);
  size_t intra = 0;
  size_t total = 0;
  for (PageId u = 0; u < cg.graph.NumNodes(); ++u) {
    for (PageId v : cg.graph.OutNeighbors(u)) {
      ++total;
      if (cg.category[u] == cg.category[v]) ++intra;
    }
  }
  ASSERT_GT(total, 0u);
  // Under uniform linking intra fraction would be ~0.1; the generator's
  // bias must push it well above.
  EXPECT_GT(static_cast<double>(intra) / total, 0.5);
}

TEST(WebGraphTest, PowerLawInDegreeTail) {
  Random rng(5);
  WebGraphParams params;
  params.num_nodes = 8000;
  params.mean_out_degree = 6;
  const CategorizedGraph cg = GenerateWebGraph(params, rng);
  const auto histogram = DegreeHistogram(cg.graph, DegreeKind::kIn);
  const double alpha = PowerLawExponentMle(histogram, 4);
  // Web-like graphs have in-degree exponents around 1.7 - 3.
  EXPECT_GT(alpha, 1.3);
  EXPECT_LT(alpha, 3.5);
}

TEST(WebGraphTest, DeterministicInSeed) {
  WebGraphParams params;
  params.num_nodes = 500;
  Random rng1(9);
  Random rng2(9);
  const CategorizedGraph a = GenerateWebGraph(params, rng1);
  const CategorizedGraph b = GenerateWebGraph(params, rng2);
  EXPECT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
  EXPECT_EQ(a.category, b.category);
}

}  // namespace
}  // namespace graph
}  // namespace jxp
