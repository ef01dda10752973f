#ifndef JXP_METRICS_RANKING_H_
#define JXP_METRICS_RANKING_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace jxp {
namespace metrics {

/// One ranked item: (id, score).
using ScoredItem = std::pair<uint32_t, double>;

/// Extracts the top-k items of a dense score vector (index = id), ordered by
/// descending score with ascending-id tie-break for determinism.
std::vector<ScoredItem> TopK(std::span<const double> scores, size_t k);

/// Extracts the top-k items of a sparse id -> score map, same ordering.
std::vector<ScoredItem> TopK(const std::unordered_map<uint32_t, double>& scores, size_t k);

/// Normalized Spearman's footrule distance between two top-k rankings, the
/// paper's comparison measure (Section 6.2, after Fagin et al.):
///
///   F = sum over pages of |pos1(p) - pos2(p)|
///
/// where positions are 1-based and a page missing from one ranking takes
/// position k+1 there. Normalized by the maximum k*(k+1) (two disjoint
/// rankings) to [0, 1]: 0 = identical, 1 = no pages in common.
/// `k` is the larger of the two list sizes.
double SpearmanFootrule(std::span<const ScoredItem> ranking1,
                        std::span<const ScoredItem> ranking2);

/// Precision at k: fraction of the first k retrieved ids that are relevant.
/// Uses min(k, retrieved.size()) as the denominator's cap partner — if fewer
/// than k items were retrieved, precision is computed over what exists.
double PrecisionAtK(std::span<const uint32_t> retrieved,
                    const std::unordered_set<uint32_t>& relevant, size_t k);

}  // namespace metrics
}  // namespace jxp

#endif  // JXP_METRICS_RANKING_H_
