#include "graph/graph.h"

#include <gtest/gtest.h>

namespace jxp {
namespace graph {
namespace {

TEST(GraphTest, EmptyGraph) {
  GraphBuilder builder;
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, BasicAdjacency) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(2, 1);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(1), 2u);
  ASSERT_EQ(g.OutNeighbors(0).size(), 2u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  EXPECT_EQ(g.OutNeighbors(0)[1], 2u);
  ASSERT_EQ(g.InNeighbors(1).size(), 2u);
  EXPECT_EQ(g.InNeighbors(1)[0], 0u);
  EXPECT_EQ(g.InNeighbors(1)[1], 2u);
}

TEST(GraphTest, NodesGrowWithEdges) {
  GraphBuilder builder;
  builder.AddEdge(5, 9);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumNodes(), 10u);
}

TEST(GraphTest, DeduplicatesParallelEdges) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, RemovesSelfLoopsByDefault) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, KeepsSelfLoopsWhenAsked) {
  GraphBuilder::Options options;
  options.remove_self_loops = false;
  GraphBuilder builder(2, options);
  builder.AddEdge(0, 0);
  const Graph g = builder.Build();
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(GraphTest, KeepsParallelEdgesWhenAsked) {
  GraphBuilder::Options options;
  options.deduplicate = false;
  GraphBuilder builder(2, options);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphTest, HasEdge) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 2);
  const Graph g = builder.Build();
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
}

}  // namespace
}  // namespace graph
}  // namespace jxp
