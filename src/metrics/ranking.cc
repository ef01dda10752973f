#include "metrics/ranking.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace jxp {
namespace metrics {

namespace {

bool ScoreGreater(const ScoredItem& a, const ScoredItem& b) {
  return a.second != b.second ? a.second > b.second : a.first < b.first;
}

/// Maps item id -> 1-based position for a ranking.
std::unordered_map<uint32_t, size_t> PositionsOf(std::span<const ScoredItem> ranking) {
  std::unordered_map<uint32_t, size_t> pos;
  pos.reserve(ranking.size() * 2);
  for (size_t i = 0; i < ranking.size(); ++i) pos.emplace(ranking[i].first, i + 1);
  return pos;
}

}  // namespace

std::vector<ScoredItem> TopK(std::span<const double> scores, size_t k) {
  std::vector<ScoredItem> items;
  items.reserve(scores.size());
  for (uint32_t i = 0; i < scores.size(); ++i) items.emplace_back(i, scores[i]);
  k = std::min(k, items.size());
  std::partial_sort(items.begin(), items.begin() + k, items.end(), ScoreGreater);
  items.resize(k);
  return items;
}

std::vector<ScoredItem> TopK(const std::unordered_map<uint32_t, double>& scores, size_t k) {
  std::vector<ScoredItem> items(scores.begin(), scores.end());
  k = std::min(k, items.size());
  std::partial_sort(items.begin(), items.begin() + k, items.end(), ScoreGreater);
  items.resize(k);
  return items;
}

double SpearmanFootrule(std::span<const ScoredItem> ranking1,
                        std::span<const ScoredItem> ranking2) {
  const size_t k = std::max(ranking1.size(), ranking2.size());
  if (k == 0) return 0.0;
  const auto pos1 = PositionsOf(ranking1);
  const auto pos2 = PositionsOf(ranking2);
  auto position = [k](const std::unordered_map<uint32_t, size_t>& pos, uint32_t id) {
    const auto it = pos.find(id);
    return it == pos.end() ? k + 1 : it->second;
  };
  double sum = 0;
  for (const auto& [id, score] : ranking1) {
    sum += std::abs(static_cast<double>(pos1.at(id)) - static_cast<double>(position(pos2, id)));
  }
  for (const auto& [id, score] : ranking2) {
    if (pos1.count(id)) continue;  // Already counted above.
    sum += std::abs(static_cast<double>(position(pos1, id)) - static_cast<double>(pos2.at(id)));
  }
  return sum / (static_cast<double>(k) * static_cast<double>(k + 1));
}

double PrecisionAtK(std::span<const uint32_t> retrieved,
                    const std::unordered_set<uint32_t>& relevant, size_t k) {
  JXP_CHECK_GT(k, 0u);
  const size_t limit = std::min(k, retrieved.size());
  if (limit == 0) return 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < limit; ++i) {
    if (relevant.count(retrieved[i])) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(limit);
}

}  // namespace metrics
}  // namespace jxp
