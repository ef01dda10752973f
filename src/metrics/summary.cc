#include "metrics/summary.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace jxp {
namespace metrics {

namespace {

/// Type-7 quantile (linear interpolation) of sorted data.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted[0];
  const double h = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = h - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

}  // namespace

Summary Summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.q1 = Quantile(sorted, 0.25);
  s.median = Quantile(sorted, 0.5);
  s.q3 = Quantile(sorted, 0.75);
  double sum = 0;
  for (double v : sorted) sum += v;
  s.mean = sum / static_cast<double>(sorted.size());
  return s;
}

}  // namespace metrics
}  // namespace jxp
