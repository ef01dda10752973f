// Parameterized property tests of the Subgraph invariants on generated
// graphs: the fragment's knowledge must exactly mirror the global graph, and
// Merge must equal Induce over the union for any pair of fragments.

#include <unordered_set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/subgraph.h"

namespace jxp {
namespace graph {
namespace {

struct SubgraphCase {
  uint64_t seed;
  size_t num_nodes;
  size_t out_degree;
  double fragment_fraction;
};

void PrintTo(const SubgraphCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " nodes=" << c.num_nodes << " outdeg=" << c.out_degree
      << " fraction=" << c.fragment_fraction;
}

class SubgraphPropertyTest : public ::testing::TestWithParam<SubgraphCase> {};

std::vector<PageId> RandomFragment(size_t num_nodes, double fraction, Random& rng) {
  std::vector<PageId> pages;
  for (PageId p = 0; p < num_nodes; ++p) {
    if (rng.NextBool(fraction)) pages.push_back(p);
  }
  if (pages.empty()) pages.push_back(static_cast<PageId>(rng.NextBounded(num_nodes)));
  return pages;
}

TEST_P(SubgraphPropertyTest, KnowledgeMirrorsGlobalGraph) {
  const SubgraphCase& param = GetParam();
  Random rng(param.seed);
  const Graph g = BarabasiAlbert(param.num_nodes, param.out_degree, rng);
  const std::vector<PageId> pages =
      RandomFragment(param.num_nodes, param.fragment_fraction, rng);
  const Subgraph sg = Subgraph::Induce(g, pages);

  size_t local_edges = 0;
  size_t external_edges = 0;
  for (Subgraph::LocalIndex i = 0; i < sg.NumLocalPages(); ++i) {
    const PageId p = sg.GlobalId(i);
    // Successor list == the page's true out-links.
    const auto knowledge = sg.Successors(i);
    const auto truth = g.OutNeighbors(p);
    ASSERT_EQ(knowledge.size(), truth.size()) << "page " << p;
    for (size_t k = 0; k < truth.size(); ++k) EXPECT_EQ(knowledge[k], truth[k]);
    EXPECT_EQ(sg.GlobalOutDegree(i), g.OutDegree(p));
    // Local/external split is consistent.
    for (Subgraph::LocalIndex j : sg.LocalOutNeighbors(i)) {
      EXPECT_TRUE(g.HasEdge(p, sg.GlobalId(j)));
    }
    local_edges += sg.LocalOutNeighbors(i).size();
    external_edges += sg.NumExternalSuccessors(i);
    EXPECT_EQ(sg.LocalOutNeighbors(i).size() + sg.NumExternalSuccessors(i),
              g.OutDegree(p));
  }
  EXPECT_EQ(sg.NumLocalEdges(), local_edges);
  EXPECT_EQ(sg.NumExternalOutEdges(), external_edges);

  // AllSuccessors is exactly the union of the out-neighborhoods.
  std::unordered_set<PageId> expected;
  for (PageId p : pages) {
    for (PageId q : g.OutNeighbors(p)) expected.insert(q);
  }
  const std::vector<PageId> all = sg.AllSuccessors();
  EXPECT_EQ(all.size(), expected.size());
  for (PageId q : all) EXPECT_TRUE(expected.count(q));
}

TEST_P(SubgraphPropertyTest, MergeEqualsInduceOnUnion) {
  const SubgraphCase& param = GetParam();
  Random rng(param.seed ^ 0xfeed);
  const Graph g = BarabasiAlbert(param.num_nodes, param.out_degree, rng);
  const std::vector<PageId> pages_a =
      RandomFragment(param.num_nodes, param.fragment_fraction, rng);
  const std::vector<PageId> pages_b =
      RandomFragment(param.num_nodes, param.fragment_fraction, rng);
  const Subgraph merged =
      Subgraph::Merge(Subgraph::Induce(g, pages_a), Subgraph::Induce(g, pages_b).Table());
  std::vector<PageId> union_pages = pages_a;
  union_pages.insert(union_pages.end(), pages_b.begin(), pages_b.end());
  const Subgraph direct = Subgraph::Induce(g, union_pages);

  ASSERT_EQ(merged.NumLocalPages(), direct.NumLocalPages());
  EXPECT_EQ(merged.NumLocalEdges(), direct.NumLocalEdges());
  EXPECT_EQ(merged.NumExternalOutEdges(), direct.NumExternalOutEdges());
  for (Subgraph::LocalIndex i = 0; i < merged.NumLocalPages(); ++i) {
    EXPECT_EQ(merged.GlobalId(i), direct.GlobalId(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SubgraphPropertyTest,
                         ::testing::Values(SubgraphCase{10, 100, 3, 0.3},
                                           SubgraphCase{11, 300, 2, 0.1},
                                           SubgraphCase{12, 300, 5, 0.6},
                                           SubgraphCase{13, 50, 4, 0.9},
                                           SubgraphCase{14, 500, 3, 0.02},
                                           SubgraphCase{15, 200, 6, 0.5}));

}  // namespace
}  // namespace graph
}  // namespace jxp
