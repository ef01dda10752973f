#ifndef JXP_CORE_EVALUATION_H_
#define JXP_CORE_EVALUATION_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "core/jxp_peer.h"
#include "metrics/ranking.h"
#include "p2p/network.h"

namespace jxp {
namespace core {

/// Builds the network-wide JXP score table used for evaluation (Section
/// 6.2): page -> average of the page's JXP scores over all peers that hold
/// it locally. (The paper notes this total ranking exists only for the
/// evaluation; the real P2P system never materializes it.)
/// The second parameter is unused; it keeps bench/e2e's (peers, nullptr) call.
std::unordered_map<graph::PageId, double> BuildGlobalJxpScores(
    const std::vector<JxpPeer>& peers, const p2p::Network*);

/// Accuracy of a JXP snapshot against the centralized PageRank baseline.
struct AccuracyPoint {
  /// Normalized Spearman's footrule distance between the JXP and PR top-k
  /// rankings (0 = identical).
  double footrule = 0;
  /// Average |JXP - PR| over the PR top-k pages.
  double linear_error = 0;
};

/// Compares the JXP score table against the centralized top-k ranking
/// (`global_top_k` from metrics::TopK over the true PR vector).
AccuracyPoint EvaluateAccuracy(
    const std::unordered_map<graph::PageId, double>& jxp_scores,
    std::span<const metrics::ScoredItem> global_top_k);

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_EVALUATION_H_
