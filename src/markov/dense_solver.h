#ifndef JXP_MARKOV_DENSE_SOLVER_H_
#define JXP_MARKOV_DENSE_SOLVER_H_

#include <vector>

#include "common/statusor.h"
#include "markov/sparse_matrix.h"

namespace jxp {
namespace markov {

/// Small dense linear-algebra helpers used to validate the iterative code on
/// small chains (tests and the theorem checks). All solvers are O(n^3) and
/// intended for n up to a few thousand.

/// Solves the linear system A x = b by Gaussian elimination with partial
/// pivoting. `a` is row-major n x n. Returns InvalidArgument on dimension
/// mismatch and FailedPrecondition on a (numerically) singular matrix.
StatusOr<std::vector<double>> SolveLinearSystem(std::vector<std::vector<double>> a,
                                                std::vector<double> b);

/// Converts a sparse transition matrix to dense row-major form.
std::vector<std::vector<double>> ToDense(const SparseMatrix& matrix);

/// The damped chain StationaryDistribution iterates, materialized as a dense
/// stochastic matrix:
///
///   G[i][j] = damping * (M[i][j] + (1 - RowSum(i)) * jump[j])
///             + (1 - damping) * jump[j]
///
/// so that ExactStationaryDistribution(G) is the exact fixed point of the
/// iteration.
std::vector<std::vector<double>> ToDenseDamped(const SparseMatrix& matrix,
                                               const std::vector<double>& jump,
                                               double damping);

/// Computes the exact stationary distribution of an irreducible stochastic
/// matrix P (rows sum to 1) by solving pi (P - I) = 0 with the normalization
/// sum(pi) = 1 replacing one equation. Returns FailedPrecondition if the
/// chain is reducible (singular system).
StatusOr<std::vector<double>> ExactStationaryDistribution(
    const std::vector<std::vector<double>>& p);

}  // namespace markov
}  // namespace jxp

#endif  // JXP_MARKOV_DENSE_SOLVER_H_
