#ifndef JXP_MARKOV_POWER_ITERATION_H_
#define JXP_MARKOV_POWER_ITERATION_H_

#include <vector>

#include "markov/sparse_matrix.h"

namespace jxp {
namespace markov {

/// Options for the damped power iteration.
struct PowerIterationOptions {
  /// Probability of following a link (the paper's epsilon, usually 0.85);
  /// 1 - damping is the random-jump probability. Set to 1 for an undamped
  /// chain (requires ergodicity of the matrix itself).
  double damping = 0.85;
  /// L1 convergence threshold on successive iterates.
  double tolerance = 1e-10;
  /// Iteration cap.
  int max_iterations = 500;
};

/// Result of a power iteration run.
struct PowerIterationResult {
  /// The (approximate) stationary distribution; sums to 1.
  std::vector<double> distribution;
  /// Number of iterations performed.
  int iterations = 0;
  /// Final L1 difference between the last two iterates.
  double residual = 0;
  /// True iff residual <= tolerance was reached within max_iterations.
  bool converged = false;
};

/// Computes the stationary distribution of the damped chain
///
///   x' = damping * (x * P + m(x) * jump) + (1 - damping) * jump
///
/// where m(x) = sum_i x_i * (1 - RowSum(i)) is the mass lost to
/// substochastic rows: a random jump and a step from a dangling state both
/// land along the `jump` distribution.
///
/// - `jump` must be a probability distribution over the matrix states (it
///   sums to 1); pass the uniform distribution for classic PageRank.
/// - `init` is the starting vector; it is normalized internally. Pass an
///   empty vector for the uniform start.
PowerIterationResult StationaryDistribution(const SparseMatrix& matrix,
                                            const std::vector<double>& jump,
                                            const std::vector<double>& init,
                                            const PowerIterationOptions& options);

/// Convenience overload using the uniform jump distribution and a uniform
/// start.
PowerIterationResult StationaryDistribution(const SparseMatrix& matrix,
                                            const PowerIterationOptions& options);

}  // namespace markov
}  // namespace jxp

#endif  // JXP_MARKOV_POWER_ITERATION_H_
