#ifndef JXP_CORE_SIMULATION_H_
#define JXP_CORE_SIMULATION_H_

#include <memory>
#include <vector>

#include "core/evaluation.h"
#include "core/jxp_options.h"
#include "core/jxp_peer.h"
#include "core/peer_selection.h"
#include "p2p/network.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace core {

/// Which partner-selection strategy the simulation uses.
enum class SelectionStrategy {
  kRandom,
  kPreMeetings,
};

/// Configuration of a JXP network simulation.
struct SimulationConfig {
  /// JXP algorithm options shared by all peers.
  JxpOptions jxp;
  /// Partner selection strategy.
  SelectionStrategy strategy = SelectionStrategy::kRandom;
  /// Options of the pre-meetings strategy (used when strategy ==
  /// kPreMeetings).
  PreMeetingSelector::Options pre_meeting;
  /// Master seed; the whole run is deterministic in it.
  uint64_t seed = 1;
  /// Size of the top-k rankings compared in Evaluate() (the paper uses
  /// 1000, and 10000 for Figure 9).
  size_t eval_top_k = 1000;
  /// Override for the global page count announced to peers (the paper's
  /// "N is known or can be estimated"). 0 = use the true node count.
  size_t global_size_estimate = 0;
  /// Adversarial setting (Section 7 open problem): the first
  /// `num_attackers` peers run `attack`; all peers apply jxp.defense.
  size_t num_attackers = 0;
  AttackOptions attack;
};

/// A complete JXP network simulation: the global graph, one JxpPeer per
/// fragment, a meeting loop with pluggable partner selection, traffic
/// accounting, and evaluation against centralized PageRank.
class JxpSimulation {
 public:
  /// `fragments[p]` lists the global pages crawled by peer p (fragments may
  /// overlap arbitrarily). The global graph must outlive the simulation.
  JxpSimulation(const graph::Graph& global, std::vector<std::vector<graph::PageId>> fragments,
                const SimulationConfig& config);

  /// Executes `count` meetings (each meeting updates both participants).
  void RunMeetings(size_t count);

  /// Compares the current network-wide JXP snapshot against centralized PR.
  AccuracyPoint Evaluate() const;

  /// Number of meetings executed so far.
  size_t meetings_done() const { return meetings_done_; }

  /// The peers, indexed by PeerId.
  const std::vector<JxpPeer>& peers() const { return peers_; }

  /// Traffic statistics.
  const p2p::Network& network() const { return network_; }

  /// Cumulative *analytic* estimate of all meeting traffic (the kEstimated
  /// byte model plus selection overhead), accumulated alongside the real
  /// totals so experiments can report measured and estimated side by side.
  /// Equals Network::TotalTrafficBytes() when jxp.wire_mode == kEstimated.
  double total_estimated_traffic_bytes() const { return total_estimated_traffic_bytes_; }

  /// True global PageRank scores (the comparison baseline).
  const std::vector<double>& global_scores() const { return global_scores_; }

  /// Centralized top-k ranking (k = config.eval_top_k).
  const std::vector<metrics::ScoredItem>& global_top_k() const { return global_top_k_; }

  /// Current network-wide JXP score table (averaged over replicas).
  std::unordered_map<graph::PageId, double> GlobalJxpScores() const {
    return BuildGlobalJxpScores(peers_, nullptr);
  }

  /// Replaces a peer's fragment (re-crawl), refreshing selector state.
  void ReplaceFragment(p2p::PeerId peer, std::vector<graph::PageId> pages);

 private:
  /// Post-meeting bookkeeping: the selector, traffic (each side's bytes plus
  /// half the selection overhead) and the meeting count.
  void FinishMeeting(p2p::PeerId initiator, p2p::PeerId partner,
                     const MeetingOutcome& outcome);

  const graph::Graph& global_;
  SimulationConfig config_;
  Random rng_;
  p2p::Network network_;
  std::vector<JxpPeer> peers_;
  std::unique_ptr<PeerSelector> selector_;
  std::vector<double> global_scores_;
  std::vector<metrics::ScoredItem> global_top_k_;
  size_t meetings_done_ = 0;
  double total_estimated_traffic_bytes_ = 0;
};

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_SIMULATION_H_
