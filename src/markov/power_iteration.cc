#include "markov/power_iteration.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace markov {

namespace {

/// Power-iteration observables (DESIGN.md §6d). Everything but the "_ms"
/// histograms is a pure function of the inputs and bit-identical across
/// runs and thread counts.
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

/// Block size of the parallel kernel. The block partition — and therefore
/// the order in which blockwise reduction partials are combined — depends
/// only on this constant, never on the thread count, which is what makes
/// the parallel path bit-reproducible at any concurrency.
constexpr size_t kParallelGrain = 1024;

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

/// The sequential push kernel (the seed implementation, with the
/// 1 - RowSum(i) complement hoisted out of the per-iteration loop).
void IterateSequential(const SparseMatrix& matrix, const std::vector<double>& teleport,
                       const std::vector<double>& dangling,
                       const std::vector<double>& complement,
                       const PowerIterationOptions& options, PowerIterationResult& result) {
  const size_t n = matrix.NumStates();
  std::vector<double>& x = result.distribution;
  std::vector<double> next(n);
  const double jump = 1.0 - options.damping;
  for (result.iterations = 0; result.iterations < options.max_iterations;) {
    matrix.LeftMultiply(x, next);
    // Mass lost to substochastic rows.
    double missing = 0;
    for (size_t i = 0; i < n; ++i) missing += x[i] * complement[i];
    if (missing < 0) missing = 0;
    double residual = 0;
    for (size_t i = 0; i < n; ++i) {
      const double v =
          options.damping * (next[i] + missing * dangling[i]) + jump * teleport[i];
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

/// The parallel pull kernel: each block of kParallelGrain output states is
/// produced by exactly one worker from the transposed matrix (no scatter
/// races), and the missing-mass / residual reductions accumulate per block
/// and combine in block order.
void IterateParallel(const SparseMatrix& matrix, const std::vector<double>& teleport,
                     const std::vector<double>& dangling,
                     const std::vector<double>& complement,
                     const PowerIterationOptions& options, ThreadPool& pool,
                     PowerIterationResult& result) {
  const size_t n = matrix.NumStates();
  const TransposedMatrix transposed(matrix);
  std::vector<double>& x = result.distribution;
  std::vector<double> next(n);
  const double jump = 1.0 - options.damping;
  const size_t num_blocks = (n + kParallelGrain - 1) / kParallelGrain;
  std::vector<double> partial(num_blocks);
  for (result.iterations = 0; result.iterations < options.max_iterations;) {
    pool.ParallelForBlocks(0, n, kParallelGrain,
                           [&](size_t begin, size_t end, size_t block) {
                             transposed.PullMultiply(x, next, begin, end);
                             double m = 0;
                             for (size_t i = begin; i < end; ++i) m += x[i] * complement[i];
                             partial[block] = m;
                           });
    double missing = 0;
    for (size_t b = 0; b < num_blocks; ++b) missing += partial[b];
    if (missing < 0) missing = 0;
    pool.ParallelForBlocks(0, n, kParallelGrain,
                           [&](size_t begin, size_t end, size_t block) {
                             double r = 0;
                             for (size_t i = begin; i < end; ++i) {
                               const double v = options.damping *
                                                    (next[i] + missing * dangling[i]) +
                                                jump * teleport[i];
                               r += std::abs(v - x[i]);
                               next[i] = v;
                             }
                             partial[block] = r;
                           });
    double residual = 0;
    for (size_t b = 0; b < num_blocks; ++b) residual += partial[b];
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
                                            const std::vector<double>& teleport,
                                            const std::vector<double>& dangling,
                                            const std::vector<double>& init,
                                            const PowerIterationOptions& options) {
  const size_t n = matrix.NumStates();
  JXP_CHECK_GT(n, 0u);
  JXP_CHECK_GT(options.damping, 0.0);
  JXP_CHECK_LE(options.damping, 1.0);
  CheckDistribution(teleport, n, "teleport");
  CheckDistribution(dangling, n, "dangling");

  obs::TraceSpan span("markov.power_iteration");
  span.AddAttr("states", n);
  span.AddAttr("threads", options.num_threads);
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
  // iteration loop (both kernels read it every iteration).
  std::vector<double> complement(n);
  for (size_t i = 0; i < n; ++i) complement[i] = 1.0 - matrix.RowSum(i);

  if (options.num_threads > 1) {
    ThreadPool* pool = options.pool;
    std::unique_ptr<ThreadPool> owned;
    if (pool == nullptr) {
      owned = std::make_unique<ThreadPool>(static_cast<size_t>(options.num_threads));
      pool = owned.get();
    }
    IterateParallel(matrix, teleport, dangling, complement, options, *pool, result);
  } else {
    IterateSequential(matrix, teleport, dangling, complement, options, result);
  }
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
  return StationaryDistribution(matrix, uniform, uniform, {}, options);
}

}  // namespace markov
}  // namespace jxp
