// Microbenchmarks (google-benchmark) of the computational substrate: graph
// construction, subgraph induction, one step of the power-iteration kernel
// (the system's only stationary solver), the centralized PageRank, and one
// JXP meeting.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "core/jxp_peer.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace {

graph::Graph MakeGraph(size_t nodes) {
  Random rng(42);
  return graph::BarabasiAlbert(nodes, 8, rng);
}

void BM_GraphBuild(benchmark::State& state) {
  const size_t nodes = static_cast<size_t>(state.range(0));
  Random rng(42);
  const graph::Graph base = graph::BarabasiAlbert(nodes, 8, rng);
  const std::vector<graph::Edge> edges = base.Edges();
  for (auto _ : state) {
    graph::GraphBuilder builder(nodes);
    for (const graph::Edge& e : edges) builder.AddEdge(e.from, e.to);
    benchmark::DoNotOptimize(builder.Build());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * edges.size()));
}
BENCHMARK(BM_GraphBuild)->Arg(1000)->Arg(10000);

void BM_SubgraphInduce(benchmark::State& state) {
  const graph::Graph g = MakeGraph(10000);
  std::vector<graph::PageId> pages;
  for (graph::PageId p = 0; p < static_cast<graph::PageId>(state.range(0)); ++p) {
    pages.push_back(p * 3 % 10000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::Subgraph::Induce(g, pages));
  }
}
BENCHMARK(BM_SubgraphInduce)->Arg(500)->Arg(2000);

void BM_PowerIterationStep(benchmark::State& state) {
  const graph::Graph g = MakeGraph(static_cast<size_t>(state.range(0)));
  const markov::SparseMatrix m = pagerank::BuildLinkMatrix(g);
  std::vector<double> x(m.NumStates(), 1.0 / static_cast<double>(m.NumStates()));
  std::vector<double> y(m.NumStates());
  for (auto _ : state) {
    m.LeftMultiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.NumEntries()));
}
BENCHMARK(BM_PowerIterationStep)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CentralizedPageRank(benchmark::State& state) {
  const graph::Graph g = MakeGraph(static_cast<size_t>(state.range(0)));
  pagerank::PageRankOptions options;
  options.tolerance = 1e-10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePageRank(g, options));
  }
}
BENCHMARK(BM_CentralizedPageRank)->Arg(1000)->Arg(10000);

void BM_JxpMeeting(benchmark::State& state) {
  const graph::Graph g = MakeGraph(4000);
  Random rng(7);
  std::vector<graph::PageId> frag_a;
  std::vector<graph::PageId> frag_b;
  for (graph::PageId p = 0; p < 4000; ++p) {
    if (rng.NextBool(0.25)) frag_a.push_back(p);
    if (rng.NextBool(0.25)) frag_b.push_back(p);
  }
  core::JxpOptions options;
  options.pr_tolerance = 1e-10;
  options.merge_mode = state.range(0) == 0 ? core::MergeMode::kFullMerge
                                           : core::MergeMode::kLightWeight;
  core::JxpPeer a(0, graph::Subgraph::Induce(g, frag_a), g.NumNodes(), options);
  core::JxpPeer b(1, graph::Subgraph::Induce(g, frag_b), g.NumNodes(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::JxpPeer::Meet(a, b));
  }
}
BENCHMARK(BM_JxpMeeting)->Arg(0)->Arg(1);

}  // namespace
}  // namespace jxp

BENCHMARK_MAIN();
