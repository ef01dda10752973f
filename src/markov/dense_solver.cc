#include "markov/dense_solver.h"

#include <algorithm>
#include <cmath>

namespace jxp {
namespace markov {

StatusOr<std::vector<double>> SolveLinearSystem(std::vector<std::vector<double>> a,
                                                std::vector<double> b) {
  const size_t n = b.size();
  if (a.size() != n) return Status::InvalidArgument("matrix/vector dimension mismatch");
  for (const auto& row : a) {
    if (row.size() != n) return Status::InvalidArgument("matrix is not square");
  }

  // Forward elimination with partial pivoting.
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-13) {
      return Status::FailedPrecondition("singular system");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    const double inv = 1.0 / a[col][col];
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] * inv;
      if (factor == 0) continue;
      for (size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (size_t c = ri + 1; c < n; ++c) sum -= a[ri][c] * x[c];
    x[ri] = sum / a[ri][ri];
  }
  return x;
}

std::vector<std::vector<double>> ToDense(const SparseMatrix& matrix) {
  const size_t n = matrix.NumStates();
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (uint32_t i = 0; i < n; ++i) {
    for (const MatrixEntry& e : matrix.Row(i)) dense[i][e.column] = e.weight;
  }
  return dense;
}

std::vector<std::vector<double>> ToDenseDamped(const SparseMatrix& matrix,
                                               const std::vector<double>& jump,
                                               double damping) {
  const size_t n = matrix.NumStates();
  JXP_CHECK_EQ(jump.size(), n);
  std::vector<std::vector<double>> dense = ToDense(matrix);
  for (uint32_t i = 0; i < n; ++i) {
    const double lost = 1.0 - matrix.RowSum(i);
    for (size_t j = 0; j < n; ++j) {
      dense[i][j] = damping * (dense[i][j] + lost * jump[j]) + (1 - damping) * jump[j];
    }
  }
  return dense;
}

StatusOr<std::vector<double>> ExactStationaryDistribution(
    const std::vector<std::vector<double>>& p) {
  const size_t n = p.size();
  if (n == 0) return Status::InvalidArgument("empty chain");
  // Build (P^T - I), then replace the last row by the normalization
  // constraint sum(pi) = 1.
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    if (p[i].size() != n) return Status::InvalidArgument("matrix is not square");
    for (size_t j = 0; j < n; ++j) a[j][i] = p[i][j];
    a[i][i] -= 1.0;
  }
  std::vector<double> b(n, 0.0);
  for (size_t j = 0; j < n; ++j) a[n - 1][j] = 1.0;
  b[n - 1] = 1.0;
  JXP_ASSIGN_OR_RETURN(std::vector<double> pi, SolveLinearSystem(std::move(a), std::move(b)));
  for (double& v : pi) {
    if (v < 0 && v > -1e-9) v = 0;  // Clamp numerical noise.
  }
  return pi;
}

}  // namespace markov
}  // namespace jxp
