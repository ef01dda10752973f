#ifndef JXP_METRICS_ERROR_H_
#define JXP_METRICS_ERROR_H_

#include <span>
#include <unordered_map>

#include "metrics/ranking.h"

namespace jxp {
namespace metrics {

/// The paper's linear score error (Section 6.2): the average absolute
/// difference between the approximate (JXP) score and the true global PR
/// score over the top-k pages *of the centralized PR ranking*.
///
/// `global_top_k` is the centralized ranking (page, true score);
/// `approx_scores` maps page -> JXP score, with missing pages scored 0.
double LinearScoreError(std::span<const ScoredItem> global_top_k,
                        const std::unordered_map<uint32_t, double>& approx_scores);

}  // namespace metrics
}  // namespace jxp

#endif  // JXP_METRICS_ERROR_H_
