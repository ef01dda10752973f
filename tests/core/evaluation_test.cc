#include "core/evaluation.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/subgraph.h"

namespace jxp {
namespace core {
namespace {

graph::Graph SmallGraph() {
  graph::GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 0);
  return builder.Build();
}

TEST(EvaluationTest, AveragesReplicatedPages) {
  const graph::Graph g = SmallGraph();
  JxpOptions options;
  std::vector<JxpPeer> peers;
  // Page 2 is replicated on both peers.
  peers.emplace_back(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), options);
  peers.emplace_back(1, graph::Subgraph::Induce(g, {2, 3, 4, 5}), g.NumNodes(), options);

  const auto scores = BuildGlobalJxpScores(peers, nullptr);
  EXPECT_EQ(scores.size(), 6u);
  const double expected_page2 =
      0.5 * (peers[0].ScoreOfGlobal(2) + peers[1].ScoreOfGlobal(2));
  EXPECT_DOUBLE_EQ(scores.at(2), expected_page2);
  EXPECT_DOUBLE_EQ(scores.at(0), peers[0].ScoreOfGlobal(0));
}

TEST(EvaluationTest, AccuracyAgainstSelfIsPerfect) {
  const graph::Graph g = SmallGraph();
  JxpOptions options;
  std::vector<JxpPeer> peers;
  std::vector<graph::PageId> all = {0, 1, 2, 3, 4, 5};
  peers.emplace_back(0, graph::Subgraph::Induce(g, all), g.NumNodes(), options);
  const auto scores = BuildGlobalJxpScores(peers, nullptr);
  // A single whole-graph peer IS the centralized computation.
  std::vector<double> dense(6, 0.0);
  for (const auto& [page, score] : scores) dense[page] = score;
  const auto top = metrics::TopK(std::span<const double>(dense), 6);
  const AccuracyPoint point = EvaluateAccuracy(scores, top);
  EXPECT_DOUBLE_EQ(point.footrule, 0.0);
  EXPECT_NEAR(point.linear_error, 0.0, 1e-15);
}

TEST(EvaluationTest, MissingPagesPenalized) {
  // JXP table lacking a top page increases both metrics.
  std::unordered_map<graph::PageId, double> scores = {{0, 0.6}, {1, 0.4}};
  const std::vector<metrics::ScoredItem> top = {{0, 0.6}, {2, 0.4}};
  const AccuracyPoint point = EvaluateAccuracy(scores, top);
  EXPECT_GT(point.footrule, 0.0);
  EXPECT_GT(point.linear_error, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace jxp
