#include "pagerank/pagerank.h"

namespace jxp {
namespace pagerank {

markov::SparseMatrix BuildLinkMatrix(const graph::Graph& g) {
  markov::SparseMatrixBuilder builder(g.NumNodes());
  for (graph::PageId u = 0; u < g.NumNodes(); ++u) {
    const auto successors = g.OutNeighbors(u);
    if (successors.empty()) continue;
    builder.ReserveRow(u, successors.size());
    const double w = 1.0 / static_cast<double>(successors.size());
    for (graph::PageId v : successors) builder.Add(u, v, w);
  }
  return builder.Build();
}

PageRankResult ComputePageRank(const graph::Graph& g, const PageRankOptions& options) {
  JXP_CHECK_GT(g.NumNodes(), 0u);
  const markov::SparseMatrix matrix = BuildLinkMatrix(g);
  markov::PowerIterationOptions pi_options;
  pi_options.damping = options.damping;
  pi_options.tolerance = options.tolerance;
  pi_options.max_iterations = options.max_iterations;
  markov::PowerIterationResult pi = StationaryDistribution(matrix, pi_options);
  PageRankResult result;
  result.scores = std::move(pi.distribution);
  result.iterations = pi.iterations;
  result.converged = pi.converged;
  return result;
}

}  // namespace pagerank
}  // namespace jxp
