#include "core/simulation.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "core/state_io.h"

namespace jxp {
namespace core {

JxpSimulation::JxpSimulation(const graph::Graph& global,
                             std::vector<std::vector<graph::PageId>> fragments,
                             const SimulationConfig& config)
    : global_(global), config_(config), rng_(config.seed) {
  JXP_CHECK_GE(fragments.size(), 2u) << "a P2P network needs at least two peers";

  // Centralized baseline.
  pagerank::PageRankOptions pr_options;
  pr_options.damping = config_.jxp.damping;
  pr_options.tolerance = config_.baseline_tolerance;
  pr_options.max_iterations = config_.baseline_max_iterations;
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

  // Fault injection (off unless the plan enables a fault). Stale-resume
  // faults roll peers back to their last checkpoint, so every peer gets an
  // initial checkpoint up front.
  if (config_.faults.Enabled()) {
    injector_ = std::make_unique<p2p::FaultInjector>(config_.faults);
    if (config_.faults.stale_resume_probability > 0) {
      JXP_CHECK(!config_.fault_checkpoint_dir.empty())
          << "stale-resume faults need SimulationConfig::fault_checkpoint_dir";
      JXP_CHECK_GT(config_.checkpoint_every, 0u);
      std::filesystem::create_directories(config_.fault_checkpoint_dir);
      meetings_at_checkpoint_.assign(peers_.size(), 0);
      for (const JxpPeer& peer : peers_) CheckpointPeer(peer.id());
    }
  }
}

void JxpSimulation::RunMeetings(size_t count) {
  for (size_t m = 0; m < count; ++m) {
    const p2p::PeerId initiator = network_.RandomPeer(rng_, p2p::kInvalidPeer);
    const p2p::PeerId partner = selector_->SelectPartner(initiator, network_, rng_);
    JXP_CHECK(partner != initiator);
    const p2p::MeetingFaultDecision faults = PlanFaults(initiator, partner);
    // An abandoned attempt consumes the schedule slot (the initiator spent
    // its meeting opportunity on failed contacts) but no meeting happens and
    // meetings_done_ does not advance.
    if (faults.abandoned) continue;
    FinishMeeting(initiator, partner, JxpPeer::Meet(peers_[initiator], peers_[partner], faults));
  }
}

AccuracyPoint JxpSimulation::Evaluate() const {
  return EvaluateAccuracy(GlobalJxpScores(), global_top_k_);
}

std::string JxpSimulation::PeerStatePath(const std::string& dir, p2p::PeerId peer) {
  return dir + "/peer_" + std::to_string(peer) + ".jxp";
}

void JxpSimulation::CheckpointPeer(p2p::PeerId peer) {
  const Status status =
      SavePeerState(peers_[peer], PeerStatePath(config_.fault_checkpoint_dir, peer));
  JXP_CHECK(status.ok()) << "checkpoint of peer " << peer
                         << " failed: " << status.ToString();
  meetings_at_checkpoint_[peer] = peers_[peer].num_meetings();
}

void JxpSimulation::MaybeCheckpoint(p2p::PeerId peer) {
  if (meetings_at_checkpoint_.empty()) return;
  if (peers_[peer].num_meetings() - meetings_at_checkpoint_[peer] >=
      config_.checkpoint_every) {
    CheckpointPeer(peer);
  }
}

p2p::MeetingFaultDecision JxpSimulation::PlanFaults(p2p::PeerId initiator,
                                                   p2p::PeerId partner) {
  if (injector_ == nullptr) return {};
  const p2p::MeetingFaultDecision faults = injector_->NextMeeting(initiator, partner);
  const double probes =
      static_cast<double>(faults.failed_attempts) * config_.faults.probe_bytes;
  if (probes > 0) {
    network_.RecordWastedTraffic(initiator, probes);
    injector_->RecordWasted(probes);
  }
  if (faults.abandoned) return faults;
  const auto restore = [&](p2p::PeerId peer) {
    StatusOr<JxpPeer> restored =
        LoadPeerState(PeerStatePath(config_.fault_checkpoint_dir, peer),
                      peers_[peer].options());
    JXP_CHECK(restored.ok()) << "stale resume of peer " << peer
                             << " failed: " << restored.status().ToString();
    // The checkpointed fragment is identical to the live one, so selector
    // caches keyed on fragment content stay valid.
    peers_[peer] = std::move(restored).value();
    meetings_at_checkpoint_[peer] = peers_[peer].num_meetings();
  };
  if (faults.stale_resume_initiator) restore(initiator);
  if (faults.stale_resume_partner) restore(partner);
  return faults;
}

void JxpSimulation::FinishMeeting(p2p::PeerId initiator, p2p::PeerId partner,
                                  const MeetingOutcome& outcome) {
  if (config_.record_meeting_log) meeting_log_.emplace_back(initiator, partner);
  // Attribute to each participant the bytes it sent plus half of the
  // selection/synopsis overhead.
  const double extra = selector_->AfterMeeting(initiator, partner);
  network_.RecordMeetingTraffic(initiator, outcome.bytes_sent_initiator + extra / 2);
  network_.RecordMeetingTraffic(partner, outcome.bytes_sent_partner + extra / 2);
  total_estimated_traffic_bytes_ += outcome.estimated_wire_bytes + extra;
  if (injector_ != nullptr) {
    if (outcome.wasted_bytes > 0) {
      network_.RecordWastedTraffic(initiator, outcome.wasted_bytes_initiator);
      network_.RecordWastedTraffic(partner, outcome.wasted_bytes_partner);
      injector_->RecordWasted(outcome.wasted_bytes);
    }
    MaybeCheckpoint(initiator);
    MaybeCheckpoint(partner);
  }
  ++meetings_done_;
}

Status JxpSimulation::SaveAllPeerStates(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  for (const JxpPeer& peer : peers_) {
    const Status status = SavePeerState(peer, PeerStatePath(dir, peer.id()));
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status JxpSimulation::LoadAllPeerStates(const std::string& dir) {
  for (JxpPeer& peer : peers_) {
    StatusOr<JxpPeer> restored =
        LoadPeerState(PeerStatePath(dir, peer.id()), peer.options());
    if (!restored.ok()) return restored.status();
    JXP_CHECK_EQ(restored.value().id(), peer.id());
    peer = std::move(restored).value();
  }
  if (!meetings_at_checkpoint_.empty()) {
    for (const JxpPeer& peer : peers_) CheckpointPeer(peer.id());
  }
  return Status::OK();
}

void JxpSimulation::ReplaceFragment(p2p::PeerId peer, std::vector<graph::PageId> pages) {
  JXP_CHECK_LT(peer, peers_.size());
  peers_[peer].ReplaceFragment(graph::Subgraph::Induce(global_, std::move(pages)));
  selector_->OnFragmentChanged(peer);
}

}  // namespace core
}  // namespace jxp
