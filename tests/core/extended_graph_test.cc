#include "core/extended_graph.h"

#include <gtest/gtest.h>

#include "markov/dense_solver.h"
#include "markov/power_iteration.h"
#include "testing/world_folds.h"

namespace jxp {
namespace core {
namespace {

/// Global graph: 0 -> 1, 1 -> {0, 2}, 2 -> 0 over N = 4 (page 3 unused).
graph::Graph TestGraph() {
  graph::GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 0);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  return builder.Build();
}

TEST(ExtendedGraphTest, LocalRowsFollowEq6And7) {
  const graph::Graph g = TestGraph();
  const graph::Subgraph fragment = graph::Subgraph::Induce(g, {0, 1});
  WorldNode world;
  const ExtendedGraphSystem system = BuildExtendedSystem(fragment, world, 0.5, 4);
  ASSERT_EQ(system.matrix.NumStates(), 3u);
  // Row 0 (page 0): single link to local page 1.
  ASSERT_EQ(system.matrix.Row(0).size(), 1u);
  EXPECT_EQ(system.matrix.Row(0)[0].column, 1u);
  EXPECT_DOUBLE_EQ(system.matrix.Row(0)[0].weight, 1.0);
  // Row 1 (page 1): 1/2 to local page 0, 1/2 to the world (page 2 external).
  EXPECT_DOUBLE_EQ(system.matrix.RowSum(1), 1.0);
  double to_world = 0;
  for (const auto& e : system.matrix.Row(1)) {
    if (e.column == 2) to_world = e.weight;
  }
  EXPECT_DOUBLE_EQ(to_world, 0.5);
}

TEST(ExtendedGraphTest, WorldRowFollowsEq8And9) {
  const graph::Graph g = TestGraph();
  const graph::Subgraph fragment = graph::Subgraph::Induce(g, {0, 1});
  WorldNode world;
  // External page 2 (out-degree 1) points at local page 0 with score 0.2.
  const std::vector<graph::PageId> targets = {0};
  FoldEntry(world, 2, 1, 0.2, targets, CombineMode::kTakeMax);
  const double world_score = 0.5;
  const ExtendedGraphSystem system = BuildExtendedSystem(fragment, world, world_score, 4);
  // p_w0 = (1/out(2)) * alpha(2)/alpha_w = 0.2/0.5 = 0.4; self-loop 0.6.
  const auto row = system.matrix.Row(2);
  double to_0 = 0;
  double self = 0;
  for (const auto& e : row) {
    if (e.column == 0) to_0 = e.weight;
    if (e.column == 2) self = e.weight;
  }
  EXPECT_DOUBLE_EQ(to_0, 0.4);
  EXPECT_DOUBLE_EQ(self, 0.6);
  EXPECT_FALSE(system.world_row_clamped);
}

TEST(ExtendedGraphTest, TeleportFollowsEq10) {
  const graph::Graph g = TestGraph();
  const graph::Subgraph fragment = graph::Subgraph::Induce(g, {0, 1});
  WorldNode world;
  const ExtendedGraphSystem system = BuildExtendedSystem(fragment, world, 0.5, 4);
  EXPECT_DOUBLE_EQ(system.teleport[0], 0.25);
  EXPECT_DOUBLE_EQ(system.teleport[1], 0.25);
  EXPECT_DOUBLE_EQ(system.teleport[2], 0.5);  // (N - n)/N = 2/4.
}

TEST(ExtendedGraphTest, ClampsSuperStochasticWorldRow) {
  const graph::Graph g = TestGraph();
  const graph::Subgraph fragment = graph::Subgraph::Induce(g, {0, 1});
  WorldNode world;
  const std::vector<graph::PageId> targets = {0};
  FoldEntry(world, 2, 1, 0.9, targets, CombineMode::kTakeMax);
  // World score far below the entry's score: flow would exceed 1.
  const ExtendedGraphSystem system = BuildExtendedSystem(fragment, world, 0.1, 4);
  EXPECT_TRUE(system.world_row_clamped);
  EXPECT_LE(system.matrix.RowSum(2), 1.0 + 1e-12);
}

TEST(ExtendedGraphTest, DanglingKnowledgeFlowsUniformly) {
  const graph::Graph g = TestGraph();
  const graph::Subgraph fragment = graph::Subgraph::Induce(g, {0, 1});
  WorldNode world;
  FoldDangling(world, 3, 0.1, CombineMode::kTakeMax);
  const ExtendedGraphSystem system = BuildExtendedSystem(fragment, world, 0.5, 4);
  // Each local page receives (0.1/0.5)/4 = 0.05 from the world row.
  const auto row = system.matrix.Row(2);
  double to_0 = 0;
  double to_1 = 0;
  for (const auto& e : row) {
    if (e.column == 0) to_0 = e.weight;
    if (e.column == 1) to_1 = e.weight;
  }
  EXPECT_DOUBLE_EQ(to_0, 0.05);
  EXPECT_DOUBLE_EQ(to_1, 0.05);
}

TEST(ExtendedGraphTest, AggregationExactness) {
  // With *perfect* world knowledge, the extended chain's stationary
  // distribution matches the global PR projected onto (local pages, world):
  // the state-aggregation exactness that motivates the world node design.
  const graph::Graph g = TestGraph();
  // Global PR over the 4-page graph (page 3 dangling).
  markov::SparseMatrixBuilder global_builder(4);
  for (graph::PageId u = 0; u < 4; ++u) {
    const auto succ = g.OutNeighbors(u);
    for (graph::PageId v : succ) {
      global_builder.Add(u, v, 1.0 / static_cast<double>(succ.size()));
    }
  }
  markov::PowerIterationOptions options;
  options.damping = 0.85;
  options.tolerance = 1e-15;
  options.max_iterations = 2000;
  const auto global = StationaryDistribution(global_builder.Build(), options);
  ASSERT_TRUE(global.converged);
  const std::vector<double>& pi = global.distribution;

  const graph::Subgraph fragment = graph::Subgraph::Induce(g, {0, 1});
  WorldNode world;
  // Perfect knowledge: page 2 -> 0 with its true score; page 3 dangling
  // with its true score.
  const std::vector<graph::PageId> targets = {0};
  FoldEntry(world, 2, 1, pi[2], targets, CombineMode::kTakeMax);
  FoldDangling(world, 3, pi[3], CombineMode::kTakeMax);
  const double true_world = pi[2] + pi[3];
  const ExtendedGraphSystem system =
      BuildExtendedSystem(fragment, world, true_world, 4);
  const auto local = StationaryDistribution(system.matrix, system.teleport, {}, options);
  ASSERT_TRUE(local.converged);
  EXPECT_NEAR(local.distribution[0], pi[0], 1e-10);
  EXPECT_NEAR(local.distribution[1], pi[1], 1e-10);
  EXPECT_NEAR(local.distribution[2], true_world, 1e-10);
}

}  // namespace
}  // namespace core
}  // namespace jxp
