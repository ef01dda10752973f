#ifndef JXP_PAGERANK_PAGERANK_H_
#define JXP_PAGERANK_PAGERANK_H_

#include <vector>

#include "graph/graph.h"
#include "markov/power_iteration.h"

namespace jxp {
namespace pagerank {

/// Options for the centralized PageRank computation.
struct PageRankOptions {
  /// Probability epsilon of following a link; 1 - epsilon is the random-jump
  /// probability. The paper uses 0.85.
  double damping = 0.85;
  /// L1 convergence threshold.
  double tolerance = 1e-10;
  /// Iteration cap.
  int max_iterations = 500;
};

/// Result of a PageRank computation.
struct PageRankResult {
  /// scores[p] is the PageRank of page p; the vector sums to 1.
  std::vector<double> scores;
  /// Power iterations performed.
  int iterations = 0;
  /// True iff the tolerance was reached.
  bool converged = false;
};

/// Computes global PageRank over the full link graph by power iteration.
///
/// Dangling pages (out-degree 0) distribute their mass uniformly over all
/// pages — the same convention the JXP extended local graph uses, so JXP
/// scores converge to exactly these values (see DESIGN.md section 2).
PageRankResult ComputePageRank(const graph::Graph& g, const PageRankOptions& options);

/// Builds the row-substochastic link matrix of `g`: row u has weight
/// 1/OutDegree(u) on each successor; dangling rows are empty.
markov::SparseMatrix BuildLinkMatrix(const graph::Graph& g);

}  // namespace pagerank
}  // namespace jxp

#endif  // JXP_PAGERANK_PAGERANK_H_
