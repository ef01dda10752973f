#include "markov/power_iteration.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "markov/dense_solver.h"
#include "markov/sparse_matrix.h"
#include "markov/state_aggregation.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace markov {
namespace {

SparseMatrix TwoStateChain(double p_stay_a, double p_stay_b) {
  SparseMatrixBuilder builder(2);
  builder.Add(0, 0, p_stay_a);
  builder.Add(0, 1, 1 - p_stay_a);
  builder.Add(1, 1, p_stay_b);
  builder.Add(1, 0, 1 - p_stay_b);
  return builder.Build();
}

TEST(SparseMatrixTest, BuildAndAccess) {
  SparseMatrixBuilder builder(3);
  builder.Add(0, 1, 0.5);
  builder.Add(0, 2, 0.25);
  builder.Add(0, 1, 0.25);  // Accumulates onto (0,1).
  SparseMatrix m = builder.Build();
  EXPECT_EQ(m.NumStates(), 3u);
  EXPECT_EQ(m.NumEntries(), 2u);
  EXPECT_DOUBLE_EQ(m.RowSum(0), 1.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 0.0);
  ASSERT_EQ(m.Row(0).size(), 2u);
  EXPECT_EQ(m.Row(0)[0].column, 1u);
  EXPECT_DOUBLE_EQ(m.Row(0)[0].weight, 0.75);
}

TEST(SparseMatrixTest, LeftMultiply) {
  SparseMatrix m = TwoStateChain(0.5, 1.0);
  std::vector<double> x = {1.0, 0.0};
  std::vector<double> y(2);
  m.LeftMultiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 0.5);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
}

TEST(SparseMatrixTest, LeftMultiplyMatchesRowLoopBitForBit) {
  Random rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    SparseMatrixBuilder builder(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.2)) continue;  // Empty (dangling) row.
      const size_t degree = 1 + rng.NextBounded(12);
      const double mass = rng.NextDouble();  // Substochastic row sum.
      for (size_t k = 0; k < degree; ++k) {
        builder.Add(i, static_cast<uint32_t>(rng.NextBounded(n)),
                    mass / static_cast<double>(degree));
      }
    }
    SparseMatrix m = builder.Build();
    if (trial % 2 == 1) {
      // A dense last row, as the extended-system cache splices in.
      std::vector<MatrixEntry> last;
      for (uint32_t c = 0; c < n; ++c) {
        last.push_back({c, rng.NextDouble() / static_cast<double>(n)});
      }
      m.ReplaceLastRow(last);
    }
    std::vector<double> x(n);
    for (double& v : x) v = rng.NextBool(0.3) ? 0.0 : rng.NextDouble();
    std::vector<double> y(n, -1.0);
    m.LeftMultiply(x, y);

    std::vector<double> reference(n, 0.0);
    for (uint32_t i = 0; i < n; ++i) {
      if (x[i] == 0) continue;
      for (const MatrixEntry& e : m.Row(i)) reference[e.column] += x[i] * e.weight;
    }
    for (size_t c = 0; c < n; ++c) {
      ASSERT_EQ(std::bit_cast<uint64_t>(y[c]), std::bit_cast<uint64_t>(reference[c]))
          << "trial " << trial << " column " << c;
    }
  }
}

TEST(PowerIterationTest, UndampedTwoStateChain) {
  // Stationary distribution of the chain (a->b with 0.5, b->a with 0.25):
  // pi = (1/3, 2/3).
  SparseMatrix m = TwoStateChain(0.5, 0.75);
  PowerIterationOptions options;
  options.damping = 1.0;
  options.tolerance = 1e-14;
  PowerIterationResult result = StationaryDistribution(m, options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.distribution[0], 1.0 / 3, 1e-10);
  EXPECT_NEAR(result.distribution[1], 2.0 / 3, 1e-10);
}

TEST(PowerIterationTest, MatchesDenseSolverOnRandomChain) {
  // A small dense chain with an ergodic structure.
  SparseMatrixBuilder builder(5);
  const double rows[5][5] = {
      {0.1, 0.2, 0.3, 0.2, 0.2},
      {0.25, 0.25, 0.25, 0.15, 0.10},
      {0.0, 0.5, 0.0, 0.5, 0.0},
      {0.3, 0.0, 0.3, 0.0, 0.4},
      {0.2, 0.2, 0.2, 0.2, 0.2},
  };
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 5; ++j) {
      if (rows[i][j] > 0) builder.Add(i, j, rows[i][j]);
    }
  }
  SparseMatrix m = builder.Build();
  PowerIterationOptions options;
  options.damping = 1.0;
  options.tolerance = 1e-14;
  PowerIterationResult iterative = StationaryDistribution(m, options);
  ASSERT_TRUE(iterative.converged);
  auto exact = ExactStationaryDistribution(ToDense(m));
  ASSERT_TRUE(exact.ok()) << exact.status();
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(iterative.distribution[i], exact.value()[i], 1e-10) << "state " << i;
  }
}

TEST(PowerIterationTest, MatchesDenseSolverOnWebGraph) {
  Random rng(5);
  const graph::Graph g = graph::BarabasiAlbert(500, 3, rng);
  const SparseMatrix m = pagerank::BuildLinkMatrix(g);
  const std::vector<double> uniform(m.NumStates(), 1.0 / static_cast<double>(m.NumStates()));
  PowerIterationOptions options;
  options.tolerance = 1e-13;
  options.max_iterations = 2000;
  const PowerIterationResult power =
      StationaryDistribution(m, uniform, {}, options);
  ASSERT_TRUE(power.converged);
  const auto exact =
      ExactStationaryDistribution(ToDenseDamped(m, uniform, options.damping));
  ASSERT_TRUE(exact.ok()) << exact.status();
  for (size_t i = 0; i < m.NumStates(); ++i) {
    EXPECT_NEAR(power.distribution[i], exact.value()[i], 1e-9) << "state " << i;
  }
}

TEST(PowerIterationTest, MatchesDenseSolverOnSlowlyMixingChain) {
  // A long directed cycle mixes slowly (its second eigenvalue has magnitude
  // ~1), so power iteration contracts only by the damping factor per
  // iteration — the regime of real Web graphs. A chord breaks the symmetry
  // so the stationary distribution is far from the uniform start.
  const size_t n = 300;
  graph::GraphBuilder builder(n);
  for (graph::PageId u = 0; u < n; ++u) {
    builder.AddEdge(u, static_cast<graph::PageId>((u + 1) % n));
  }
  builder.AddEdge(0, static_cast<graph::PageId>(n / 2));
  const SparseMatrix m = pagerank::BuildLinkMatrix(builder.Build());
  const std::vector<double> uniform(n, 1.0 / static_cast<double>(n));
  for (const double damping : {0.85, 0.99}) {
    PowerIterationOptions options;
    options.damping = damping;
    options.tolerance = 1e-14;
    options.max_iterations = 5000;
    const PowerIterationResult power =
        StationaryDistribution(m, uniform, {}, options);
    ASSERT_TRUE(power.converged) << "damping " << damping;
    const auto exact =
        ExactStationaryDistribution(ToDenseDamped(m, uniform, damping));
    ASSERT_TRUE(exact.ok()) << exact.status();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(power.distribution[i], exact.value()[i], 1e-10)
          << "damping " << damping << " state " << i;
    }
  }
}

TEST(PowerIterationTest, DanglingMassRedistributed) {
  // State 1 is dangling; its mass, like a random jump, goes along the jump
  // distribution, here all of it to state 0.
  SparseMatrixBuilder builder(2);
  builder.Add(0, 1, 1.0);
  SparseMatrix m = builder.Build();
  const std::vector<double> jump = {1.0, 0.0};
  PowerIterationOptions options;
  options.damping = 0.85;
  options.tolerance = 1e-14;
  PowerIterationResult result = StationaryDistribution(m, jump, {}, options);
  ASSERT_TRUE(result.converged);
  // Fixpoint: x0 = 0.85 * x1 + 0.15 ; x1 = 0.85 * x0, so
  // x0 = 0.15 / (1 - 0.85^2) = 20/37 and x1 = 17/37.
  EXPECT_NEAR(result.distribution[0], 20.0 / 37.0, 1e-10);
  EXPECT_NEAR(result.distribution[1], 17.0 / 37.0, 1e-10);
}

TEST(PowerIterationTest, DistributionSumsToOne) {
  SparseMatrixBuilder builder(4);
  builder.Add(0, 1, 1.0);
  builder.Add(1, 2, 0.7);
  builder.Add(1, 0, 0.3);
  // States 2, 3 dangling.
  SparseMatrix m = builder.Build();
  PowerIterationOptions options;
  PowerIterationResult result = StationaryDistribution(m, options);
  double sum = 0;
  for (double v : result.distribution) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(PowerIterationTest, InitDoesNotChangeFixpoint) {
  SparseMatrix m = TwoStateChain(0.3, 0.6);
  PowerIterationOptions options;
  options.damping = 0.85;
  options.tolerance = 1e-14;
  const std::vector<double> teleport = {0.5, 0.5};
  PowerIterationResult from_uniform =
      StationaryDistribution(m, teleport, {}, options);
  PowerIterationResult from_skewed =
      StationaryDistribution(m, teleport, {0.99, 0.01}, options);
  EXPECT_NEAR(from_uniform.distribution[0], from_skewed.distribution[0], 1e-10);
}

TEST(DenseSolverTest, SolvesRegularSystem) {
  std::vector<std::vector<double>> a = {{2, 1}, {1, 3}};
  std::vector<double> b = {3, 5};
  auto x = SolveLinearSystem(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x.value()[0], 0.8, 1e-12);
  EXPECT_NEAR(x.value()[1], 1.4, 1e-12);
}

TEST(DenseSolverTest, ReportsSingularSystem) {
  std::vector<std::vector<double>> a = {{1, 2}, {2, 4}};
  std::vector<double> b = {1, 2};
  auto x = SolveLinearSystem(a, b);
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DenseSolverTest, RejectsDimensionMismatch) {
  auto x = SolveLinearSystem({{1, 2}}, {1, 2});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(DenseSolverTest, RejectsRaggedMatrix) {
  // One row too short, one too long: every dense entry point must reject
  // the shape instead of reading past (or ignoring part of) a row.
  const std::vector<std::vector<std::vector<double>>> ragged = {
      {{0.5, 0.5}, {1.0}},
      {{0.5, 0.5}, {0.2, 0.3, 0.5}},
  };
  for (const auto& p : ragged) {
    auto stationary = ExactStationaryDistribution(p);
    EXPECT_EQ(stationary.status().code(), StatusCode::kInvalidArgument);
    auto aggregated = AggregateChain(p, {0.5, 0.5}, {0, 1}, 2);
    EXPECT_EQ(aggregated.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace markov
}  // namespace jxp
