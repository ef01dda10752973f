// Parameterized property tests: on randomly generated chains, power
// iteration must agree with the dense oracle (Gaussian elimination on the
// materialized damped chain), and its result must actually be a fixpoint of
// the damped equation.

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "markov/dense_solver.h"
#include "markov/power_iteration.h"

namespace jxp {
namespace markov {
namespace {

struct ChainCase {
  uint64_t seed;
  size_t num_states;
  double density;       // Probability of each off-diagonal entry existing.
  double dangling_fraction;  // Fraction of states with empty rows.
  double damping;
};

void PrintTo(const ChainCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " states=" << c.num_states << " density=" << c.density
      << " dangling=" << c.dangling_fraction << " damping=" << c.damping;
}

SparseMatrix RandomChain(const ChainCase& param, Random& rng) {
  SparseMatrixBuilder builder(param.num_states);
  for (uint32_t i = 0; i < param.num_states; ++i) {
    if (rng.NextBool(param.dangling_fraction)) continue;  // Dangling state.
    std::vector<std::pair<uint32_t, double>> entries;
    double total = 0;
    for (uint32_t j = 0; j < param.num_states; ++j) {
      if (!rng.NextBool(param.density)) continue;
      const double w = 0.05 + rng.NextDouble();
      entries.emplace_back(j, w);
      total += w;
    }
    if (entries.empty()) {
      // Guarantee at least one out-transition for non-dangling states.
      entries.emplace_back(static_cast<uint32_t>(rng.NextBounded(param.num_states)), 1.0);
      total = 1.0;
    }
    for (const auto& [j, w] : entries) builder.Add(i, j, w / total);
  }
  return builder.Build();
}

class StationaryPropertyTest : public ::testing::TestWithParam<ChainCase> {};

TEST_P(StationaryPropertyTest, SolversAgreeAndFixpointHolds) {
  const ChainCase& param = GetParam();
  Random rng(param.seed);
  const SparseMatrix m = RandomChain(param, rng);
  const size_t n = m.NumStates();
  const std::vector<double> uniform(n, 1.0 / static_cast<double>(n));

  PowerIterationOptions options;
  options.damping = param.damping;
  options.tolerance = 1e-14;
  options.max_iterations = 5000;
  const PowerIterationResult power =
      StationaryDistribution(m, uniform, {}, options);
  ASSERT_TRUE(power.converged);

  // Fixpoint property: x = eps*(xP + m(x) u) + (1-eps) u, verified directly.
  std::vector<double> propagated(n);
  m.LeftMultiply(power.distribution, propagated);
  double missing = 0;
  for (size_t i = 0; i < n; ++i) {
    missing += power.distribution[i] * (1.0 - m.RowSum(i));
  }
  for (size_t i = 0; i < n; ++i) {
    const double rhs = param.damping * (propagated[i] + missing * uniform[i]) +
                       (1 - param.damping) * uniform[i];
    EXPECT_NEAR(power.distribution[i], rhs, 1e-10) << "state " << i;
  }

  // Distribution property.
  double sum = 0;
  for (double v : power.distribution) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-10);

  // Agreement with the dense oracle on the full damped chain (dangling ->
  // uniform, plus the jump).
  const auto exact =
      ExactStationaryDistribution(ToDenseDamped(m, uniform, param.damping));
  ASSERT_TRUE(exact.ok()) << exact.status();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(power.distribution[i], exact.value()[i], 1e-9) << "state " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StationaryPropertyTest,
    ::testing::Values(ChainCase{1, 20, 0.3, 0.0, 0.85}, ChainCase{2, 40, 0.2, 0.1, 0.85},
                      ChainCase{3, 60, 0.1, 0.2, 0.85}, ChainCase{4, 50, 0.15, 0.0, 0.5},
                      ChainCase{5, 30, 0.4, 0.3, 0.95}, ChainCase{6, 200, 0.05, 0.1, 0.85},
                      ChainCase{7, 25, 0.5, 0.0, 0.99}, ChainCase{8, 100, 0.08, 0.5, 0.85}));

}  // namespace
}  // namespace markov
}  // namespace jxp
