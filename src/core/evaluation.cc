#include "core/evaluation.h"

#include "metrics/error.h"

namespace jxp {
namespace core {

std::unordered_map<graph::PageId, double> BuildGlobalJxpScores(
    const std::vector<JxpPeer>& peers, const p2p::Network*) {
  std::unordered_map<graph::PageId, double> sum;
  std::unordered_map<graph::PageId, uint32_t> count;
  for (const JxpPeer& peer : peers) {
    const graph::Subgraph& fragment = peer.fragment();
    const std::vector<double>& scores = peer.local_scores();
    for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
      sum[fragment.GlobalId(i)] += scores[i];
      count[fragment.GlobalId(i)] += 1;
    }
  }
  for (auto& [page, total] : sum) total /= static_cast<double>(count[page]);
  return sum;
}

AccuracyPoint EvaluateAccuracy(
    const std::unordered_map<graph::PageId, double>& jxp_scores,
    std::span<const metrics::ScoredItem> global_top_k) {
  AccuracyPoint point;
  const std::vector<metrics::ScoredItem> jxp_top_k =
      metrics::TopK(jxp_scores, global_top_k.size());
  point.footrule = metrics::SpearmanFootrule(jxp_top_k, global_top_k);
  point.linear_error = metrics::LinearScoreError(global_top_k, jxp_scores);
  return point;
}

}  // namespace core
}  // namespace jxp
