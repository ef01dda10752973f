#include "metrics/error.h"

#include <cmath>

namespace jxp {
namespace metrics {

namespace {

double ApproxScore(const std::unordered_map<uint32_t, double>& approx_scores, uint32_t page) {
  const auto it = approx_scores.find(page);
  return it == approx_scores.end() ? 0.0 : it->second;
}

}  // namespace

double LinearScoreError(std::span<const ScoredItem> global_top_k,
                        const std::unordered_map<uint32_t, double>& approx_scores) {
  if (global_top_k.empty()) return 0.0;
  double sum = 0;
  for (const auto& [page, true_score] : global_top_k) {
    sum += std::abs(true_score - ApproxScore(approx_scores, page));
  }
  return sum / static_cast<double>(global_top_k.size());
}

}  // namespace metrics
}  // namespace jxp
