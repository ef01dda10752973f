#include "markov/power_iteration.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace markov {

namespace {

/// Power-iteration observables (DESIGN.md §6d). Everything but the "_ms"
/// histograms is a pure function of the inputs and bit-identical across
/// runs.
struct PowerIterationMetrics {
  obs::Counter runs =
      obs::MetricsRegistry::Global().GetCounter("markov.power_iteration.runs");
  obs::Counter iterations_total =
      obs::MetricsRegistry::Global().GetCounter("markov.power_iteration.iterations_total");
  /// Runs that stopped at max_iterations above the tolerance.
  obs::Counter unconverged_runs =
      obs::MetricsRegistry::Global().GetCounter("markov.power_iteration.unconverged_runs");
  obs::Histogram iterations =
      obs::MetricsRegistry::Global().GetHistogram("markov.power_iteration.iterations");
  obs::Histogram run_ms =
      obs::MetricsRegistry::Global().GetHistogram("markov.power_iteration.run_ms");
  obs::Histogram iteration_ms =
      obs::MetricsRegistry::Global().GetHistogram("markov.power_iteration.iteration_ms");
};

PowerIterationMetrics& GetPowerIterationMetrics() {
  static PowerIterationMetrics metrics;
  return metrics;
}

/// Normalizes v to sum 1; falls back to uniform when the sum is 0.
void NormalizeL1(std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  if (sum <= 0) {
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(v.size()));
    return;
  }
  for (double& x : v) x /= sum;
}

double CheckDistribution(const std::vector<double>& v, size_t n, const char* what) {
  JXP_CHECK_EQ(v.size(), n) << what << " has wrong size";
  double sum = 0;
  for (double x : v) {
    JXP_CHECK_GE(x, 0.0) << what << " has a negative entry";
    sum += x;
  }
  JXP_CHECK(std::abs(sum - 1.0) < 1e-6) << what << " does not sum to 1 (sum=" << sum << ")";
  return sum;
}

/// The push kernel: one LeftMultiply per iteration, with the 1 - RowSum(i)
/// complement hoisted out of the loop.
void Iterate(const SparseMatrix& matrix, const std::vector<double>& jump,
             const std::vector<double>& complement, const PowerIterationOptions& options,
             PowerIterationResult& result) {
  const size_t n = matrix.NumStates();
  std::vector<double>& x = result.distribution;
  std::vector<double> next(n);
  const double jump_probability = 1.0 - options.damping;
  for (result.iterations = 0; result.iterations < options.max_iterations;) {
    matrix.LeftMultiply(x, next);
    // Mass lost to substochastic rows.
    double missing = 0;
    for (size_t i = 0; i < n; ++i) missing += x[i] * complement[i];
    if (missing < 0) missing = 0;
    double residual = 0;
    for (size_t i = 0; i < n; ++i) {
      const double v =
          options.damping * (next[i] + missing * jump[i]) + jump_probability * jump[i];
      residual += std::abs(v - x[i]);
      next[i] = v;
    }
    x.swap(next);
    ++result.iterations;
    result.residual = residual;
    if (residual <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
}

}  // namespace

PowerIterationResult StationaryDistribution(const SparseMatrix& matrix,
                                            const std::vector<double>& jump,
                                            const std::vector<double>& init,
                                            const PowerIterationOptions& options) {
  const size_t n = matrix.NumStates();
  JXP_CHECK_GT(n, 0u);
  JXP_CHECK_GT(options.damping, 0.0);
  JXP_CHECK_LE(options.damping, 1.0);
  CheckDistribution(jump, n, "jump");

  obs::TraceSpan span("markov.power_iteration");
  span.AddAttr("states", n);
  std::optional<WallTimer> wall;
  if (obs::Enabled()) wall.emplace();

  PowerIterationResult result;
  std::vector<double>& x = result.distribution;
  if (init.empty()) {
    x.assign(n, 1.0 / static_cast<double>(n));
  } else {
    JXP_CHECK_EQ(init.size(), n);
    x = init;
    NormalizeL1(x);
  }

  // The per-row missing-mass complement 1 - RowSum(i), hoisted out of the
  // iteration loop (the kernel reads it every iteration).
  std::vector<double> complement(n);
  for (size_t i = 0; i < n; ++i) complement[i] = 1.0 - matrix.RowSum(i);

  Iterate(matrix, jump, complement, options, result);
  // Counter floating-point drift so downstream sums are exact.
  NormalizeL1(x);

  if (wall.has_value()) {
    PowerIterationMetrics& metrics = GetPowerIterationMetrics();
    metrics.runs.Increment();
    metrics.iterations_total.Increment(static_cast<uint64_t>(result.iterations));
    metrics.iterations.Observe(result.iterations);
    if (!result.converged) metrics.unconverged_runs.Increment();
    const double run_ms = wall->ElapsedMillis();
    metrics.run_ms.Observe(run_ms);
    if (result.iterations > 0) {
      metrics.iteration_ms.Observe(run_ms / result.iterations);
    }
  }
  if (span.active()) {
    span.AddAttr("iterations", result.iterations);
    span.AddAttr("residual", result.residual);
    span.AddAttr("converged", result.converged);
  }
  return result;
}

PowerIterationResult StationaryDistribution(const SparseMatrix& matrix,
                                            const PowerIterationOptions& options) {
  const std::vector<double> uniform(matrix.NumStates(),
                                    1.0 / static_cast<double>(matrix.NumStates()));
  return StationaryDistribution(matrix, uniform, {}, options);
}

}  // namespace markov
}  // namespace jxp
