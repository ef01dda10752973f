#include "core/simulation.h"

#include <utility>

namespace jxp {
namespace core {

namespace {

/// Convergence of the centralized PageRank baseline (damping mirrors
/// jxp.damping).
constexpr double kBaselineTolerance = 1e-12;
constexpr int kBaselineMaxIterations = 500;

}  // namespace

JxpSimulation::JxpSimulation(const graph::Graph& global,
                             std::vector<std::vector<graph::PageId>> fragments,
                             const SimulationConfig& config)
    : global_(global), config_(config), rng_(config.seed) {
  JXP_CHECK_GE(fragments.size(), 2u) << "a P2P network needs at least two peers";

  // Centralized baseline.
  pagerank::PageRankOptions pr_options;
  pr_options.damping = config_.jxp.damping;
  pr_options.tolerance = kBaselineTolerance;
  pr_options.max_iterations = kBaselineMaxIterations;
  pagerank::PageRankResult baseline = ComputePageRank(global, pr_options);
  JXP_CHECK(baseline.converged) << "centralized PageRank did not converge";
  global_scores_ = std::move(baseline.scores);
  global_top_k_ = metrics::TopK(global_scores_, config_.eval_top_k);

  // Peers.
  const size_t n = config_.global_size_estimate > 0 ? config_.global_size_estimate
                                                    : global.NumNodes();
  peers_.reserve(fragments.size());
  for (std::vector<graph::PageId>& pages : fragments) {
    const p2p::PeerId id = network_.AddPeer();
    JxpOptions options = config_.jxp;
    if (id < config_.num_attackers) options.attack = config_.attack;
    peers_.emplace_back(id, graph::Subgraph::Induce(global, std::move(pages)), n,
                        options);
  }

  // Partner selection.
  if (config_.strategy == SelectionStrategy::kPreMeetings) {
    selector_ = std::make_unique<PreMeetingSelector>(config_.pre_meeting, &peers_);
  } else {
    selector_ = std::make_unique<RandomPeerSelector>();
  }
}

void JxpSimulation::RunMeetings(size_t count) {
  for (size_t m = 0; m < count; ++m) {
    const p2p::PeerId initiator = network_.RandomPeer(rng_, p2p::kInvalidPeer);
    const p2p::PeerId partner = selector_->SelectPartner(initiator, network_, rng_);
    JXP_CHECK(partner != initiator);
    FinishMeeting(initiator, partner, JxpPeer::Meet(peers_[initiator], peers_[partner]));
  }
}

AccuracyPoint JxpSimulation::Evaluate() const {
  return EvaluateAccuracy(GlobalJxpScores(), global_top_k_);
}

void JxpSimulation::FinishMeeting(p2p::PeerId initiator, p2p::PeerId partner,
                                  const MeetingOutcome& outcome) {
  // Attribute to each participant the bytes it sent plus half of the
  // selection/synopsis overhead.
  const double extra = selector_->AfterMeeting(initiator, partner);
  network_.RecordMeetingTraffic(initiator, outcome.bytes_sent_initiator + extra / 2);
  network_.RecordMeetingTraffic(partner, outcome.bytes_sent_partner + extra / 2);
  total_estimated_traffic_bytes_ += outcome.estimated_wire_bytes + extra;
  ++meetings_done_;
}

void JxpSimulation::ReplaceFragment(p2p::PeerId peer, std::vector<graph::PageId> pages) {
  JXP_CHECK_LT(peer, peers_.size());
  peers_[peer].ReplaceFragment(graph::Subgraph::Induce(global_, std::move(pages)));
  selector_->OnFragmentChanged(peer);
}

}  // namespace core
}  // namespace jxp
