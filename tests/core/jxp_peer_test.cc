#include "core/jxp_peer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace core {
namespace {

JxpOptions TightOptions() {
  JxpOptions options;
  options.pr_tolerance = 1e-14;
  options.pr_max_iterations = 1000;
  return options;
}

/// A small fixed graph: 0 -> {1,2}, 1 -> {2}, 2 -> {0}, 3 -> {2}, 4 dangling.
graph::Graph SmallGraph() {
  graph::GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(3, 2);
  return builder.Build();
}

TEST(JxpPeerTest, PeerHoldingWholeGraphComputesExactPageRank) {
  const graph::Graph g = SmallGraph();
  std::vector<graph::PageId> all = {0, 1, 2, 3, 4};
  JxpPeer peer(0, graph::Subgraph::Induce(g, all), g.NumNodes(), TightOptions());

  pagerank::PageRankOptions pr_options;
  pr_options.tolerance = 1e-14;
  pr_options.max_iterations = 1000;
  const pagerank::PageRankResult baseline = ComputePageRank(g, pr_options);
  ASSERT_TRUE(baseline.converged);

  for (graph::PageId p = 0; p < g.NumNodes(); ++p) {
    EXPECT_NEAR(peer.ScoreOfGlobal(p), baseline.scores[p], 1e-10) << "page " << p;
  }
  EXPECT_NEAR(peer.world_score(), 0.0, 1e-10);
}

TEST(JxpPeerTest, InitializationUnderestimatesPageRank) {
  const graph::Graph g = SmallGraph();
  pagerank::PageRankOptions pr_options;
  pr_options.tolerance = 1e-14;
  const pagerank::PageRankResult baseline = ComputePageRank(g, pr_options);

  JxpPeer peer(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), TightOptions());
  for (graph::PageId p : {0, 1, 2}) {
    EXPECT_GT(peer.ScoreOfGlobal(p), 0.0);
    EXPECT_LE(peer.ScoreOfGlobal(p), baseline.scores[p] + 1e-12) << "page " << p;
  }
  // Scores + world score form a distribution.
  double total = peer.world_score();
  for (double s : peer.local_scores()) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(JxpPeerTest, ScoreOfGlobalReturnsZeroForForeignPages) {
  const graph::Graph g = SmallGraph();
  JxpPeer peer(0, graph::Subgraph::Induce(g, {0, 1}), g.NumNodes(), TightOptions());
  EXPECT_EQ(peer.ScoreOfGlobal(4), 0.0);
}

TEST(JxpPeerTest, MeetingTransfersInLinkKnowledge) {
  const graph::Graph g = SmallGraph();
  // Peer A holds {0,1,2}; peer B holds {2,3}: page 3 -> 2 is an in-link A
  // can only learn from B.
  JxpPeer a(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), TightOptions());
  JxpPeer b(1, graph::Subgraph::Induce(g, {2, 3}), g.NumNodes(), TightOptions());
  EXPECT_EQ(a.world_node().NumEntries(), 0u);

  const double score_2_before = a.ScoreOfGlobal(2);
  MeetingOutcome outcome = JxpPeer::Meet(a, b);
  EXPECT_GT(outcome.wire_bytes, 0.0);

  // A now knows that page 3 (out-degree 1) points at its local page 2.
  ASSERT_EQ(a.world_node().NumEntries(), 1u);
  const auto info = a.world_node().Find(3);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->out_degree, 1u);
  ASSERT_EQ(info->targets.size(), 1u);
  EXPECT_EQ(info->targets[0], 2u);
  // The extra in-link raises page 2's score.
  EXPECT_GT(a.ScoreOfGlobal(2), score_2_before);
}

TEST(JxpPeerTest, MeetingsAreSymmetricInKnowledge) {
  const graph::Graph g = SmallGraph();
  JxpPeer a(0, graph::Subgraph::Induce(g, {0, 1}), g.NumNodes(), TightOptions());
  JxpPeer b(1, graph::Subgraph::Induce(g, {2, 3}), g.NumNodes(), TightOptions());
  JxpPeer::Meet(a, b);
  // B learns 0 -> 2 and 1 -> 2 (pages 0 and 1 point into B's page 2).
  EXPECT_TRUE(b.world_node().Find(0).has_value());
  EXPECT_TRUE(b.world_node().Find(1).has_value());
  // A learns 2 -> 0 (page 2 points into A's page 0).
  EXPECT_TRUE(a.world_node().Find(2).has_value());
}

TEST(JxpPeerTest, RepeatedMeetingsReachAFixpoint) {
  // Score improvements across meetings are geometric: after enough rounds
  // the marginal change of one more meeting is negligible.
  const graph::Graph g = SmallGraph();
  JxpPeer a(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), TightOptions());
  JxpPeer b(1, graph::Subgraph::Induce(g, {2, 3, 4}), g.NumNodes(), TightOptions());
  for (int i = 0; i < 120; ++i) JxpPeer::Meet(a, b);
  const std::vector<double> scores_before = a.local_scores();
  JxpPeer::Meet(a, b);
  for (size_t i = 0; i < scores_before.size(); ++i) {
    EXPECT_NEAR(a.local_scores()[i], scores_before[i], 1e-10);
  }
}

TEST(JxpPeerTest, FullMergeAndLightWeightAgreeInTheLimit) {
  Random rng(7);
  const graph::Graph g = graph::BarabasiAlbert(30, 2, rng);
  JxpOptions light = TightOptions();
  light.merge_mode = MergeMode::kLightWeight;
  JxpOptions full = TightOptions();
  full.merge_mode = MergeMode::kFullMerge;

  const std::vector<graph::PageId> frag_a = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14};
  std::vector<graph::PageId> frag_b;
  for (graph::PageId p = 10; p < 30; ++p) frag_b.push_back(p);

  auto run = [&](const JxpOptions& options) {
    JxpPeer a(0, graph::Subgraph::Induce(g, frag_a), g.NumNodes(), options);
    JxpPeer b(1, graph::Subgraph::Induce(g, frag_b), g.NumNodes(), options);
    for (int i = 0; i < 150; ++i) JxpPeer::Meet(a, b);
    return a.ScoreOfGlobal(0);
  };
  EXPECT_NEAR(run(light), run(full), 1e-8);
}

TEST(JxpPeerTest, MessageWireBytesGrowWithWorldKnowledge) {
  const graph::Graph g = SmallGraph();
  JxpPeer a(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), TightOptions());
  JxpPeer b(1, graph::Subgraph::Induce(g, {2, 3}), g.NumNodes(), TightOptions());
  const double before = a.MessageWireBytes();
  JxpPeer::Meet(a, b);
  EXPECT_GT(a.MessageWireBytes(), before);
}

TEST(JxpPeerTest, ReplaceFragmentKeepsKnownScores) {
  const graph::Graph g = SmallGraph();
  const JxpOptions options = TightOptions();
  JxpPeer a(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), options);
  JxpPeer b(1, graph::Subgraph::Induce(g, {2, 3, 4}), g.NumNodes(), options);
  for (int i = 0; i < 10; ++i) JxpPeer::Meet(a, b);
  const double score_0 = a.ScoreOfGlobal(0);
  // Re-crawl: drop page 1, add page 3.
  a.ReplaceFragment(graph::Subgraph::Induce(g, {0, 2, 3}));
  EXPECT_EQ(a.ScoreOfGlobal(1), 0.0);
  EXPECT_GT(a.ScoreOfGlobal(3), 0.0);
  // Page 0's score survives the re-crawl. (A transient over- or
  // under-estimate is possible right after a re-crawl: the world-score
  // monotonicity that Theorem 5.3 relies on is briefly broken. The network
  // self-heals; see the assertion below.)
  EXPECT_NEAR(a.ScoreOfGlobal(0), score_0, 0.06);
  // World knowledge no longer references dropped pages.
  for (size_t e = 0; e < a.world_node().NumEntries(); ++e) {
    const ExternalPageInfo info = a.world_node().Entry(e);
    EXPECT_FALSE(a.fragment().Contains(info.page));
    for (graph::PageId t : info.targets) {
      EXPECT_TRUE(a.fragment().Contains(t));
    }
  }
  // Self-healing: after further meetings, safety (alpha <= pi) holds again.
  pagerank::PageRankOptions pr_options;
  pr_options.tolerance = 1e-14;
  pr_options.max_iterations = 1000;
  const pagerank::PageRankResult baseline = ComputePageRank(g, pr_options);
  for (int i = 0; i < 60; ++i) JxpPeer::Meet(a, b);
  for (graph::PageId p : {0u, 2u, 3u}) {
    EXPECT_LE(a.ScoreOfGlobal(p), baseline.scores[p] + 1e-6) << "page " << p;
    EXPECT_NEAR(a.ScoreOfGlobal(p), baseline.scores[p], 5e-3) << "page " << p;
  }
}

TEST(JxpPeerTest, TracksMeetingCpuTime) {
  const graph::Graph g = SmallGraph();
  JxpPeer a(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), TightOptions());
  JxpPeer b(1, graph::Subgraph::Induce(g, {2, 3}), g.NumNodes(), TightOptions());
  JxpPeer::Meet(a, b);
  JxpPeer::Meet(b, a);
  EXPECT_EQ(a.num_meetings(), 2u);
  EXPECT_EQ(a.meeting_cpu_millis().size(), 2u);
  EXPECT_GE(a.meeting_cpu_millis()[0], 0.0);
}

TEST(ConvergenceDetectionTest, HistoryIsMonotoneAndMatchesCount) {
  // A peer's world score after each meeting never rises (Theorem 5.1).
  Random rng(91);
  const graph::Graph g = graph::BarabasiAlbert(100, 3, rng);
  std::vector<std::vector<graph::PageId>> fragments(3);
  for (graph::PageId p = 0; p < g.NumNodes(); ++p) {
    fragments[rng.NextBounded(3)].push_back(p);
    if (rng.NextBool(0.3)) fragments[rng.NextBounded(3)].push_back(p);
  }
  JxpOptions options;
  options.pr_tolerance = 1e-12;
  std::vector<JxpPeer> peers;
  for (size_t i = 0; i < 3; ++i) {
    peers.emplace_back(static_cast<p2p::PeerId>(i), graph::Subgraph::Induce(g, fragments[i]),
                       g.NumNodes(), options);
  }
  Random schedule(92);
  for (int m = 0; m < 100; ++m) {
    const size_t a = schedule.NextBounded(3);
    size_t b = schedule.NextBounded(2);
    if (b >= a) ++b;
    JxpPeer::Meet(peers[a], peers[b]);
  }
  for (const JxpPeer& peer : peers) {
    const auto& history = peer.world_score_history();
    EXPECT_EQ(history.size(), peer.num_meetings());
    for (size_t i = 1; i < history.size(); ++i) {
      EXPECT_LE(history[i], history[i - 1] + 1e-9);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace jxp
