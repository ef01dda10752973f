#include "core/peer_selection.h"

#include <algorithm>

namespace jxp {
namespace core {
namespace {

/// Shared seed of the permutation family (network-wide constant).
constexpr uint64_t kMipsSeed = 0xa11ce5eedULL;
/// Cache capacity per peer (oldest evicted first).
constexpr size_t kMaxCachedPeers = 20;
/// Candidate list capacity per peer.
constexpr size_t kMaxCandidates = 20;

}  // namespace

PreMeetingSelector::PreMeetingSelector(const Options& options,
                                       const std::vector<JxpPeer>* peers)
    : options_(options),
      peers_(peers),
      family_(options.mips_permutations, kMipsSeed) {
  JXP_CHECK(peers_ != nullptr);
  states_.resize(peers_->size());
}

PreMeetingSelector::PeerState& PreMeetingSelector::StateOf(p2p::PeerId peer) {
  if (peer >= states_.size()) states_.resize(peer + 1);
  return states_[peer];
}

void PreMeetingSelector::EnsureSignatures(p2p::PeerId peer) {
  PeerState& state = StateOf(peer);
  if (state.signatures_ready) return;
  JXP_CHECK_LT(peer, peers_->size());
  const graph::Subgraph& fragment = (*peers_)[peer].fragment();
  state.local_signature = family_.Sign(fragment.Pages());
  const std::vector<graph::PageId> successors = fragment.AllSuccessors();
  state.successors_signature =
      family_.Sign(std::span<const graph::PageId>(successors));
  state.signatures_ready = true;
}

void PreMeetingSelector::OnFragmentChanged(p2p::PeerId peer) {
  PeerState& state = StateOf(peer);
  state.signatures_ready = false;
  // Cached judgments were made against the old fragment; drop them.
  state.cached.clear();
  state.candidates.clear();
}

void PreMeetingSelector::CachePeer(PeerState& state, p2p::PeerId peer) {
  const auto it = std::find(state.cached.begin(), state.cached.end(), peer);
  if (it != state.cached.end()) {
    // Refresh recency: move to the back.
    state.cached.erase(it);
  } else if (state.cached.size() >= kMaxCachedPeers) {
    state.cached.erase(state.cached.begin());
  }
  state.cached.push_back(peer);
}

double PreMeetingSelector::ConsiderCandidate(p2p::PeerId owner, PeerState& state,
                                             p2p::PeerId candidate) {
  if (candidate == owner) return 0;
  const auto already = [candidate](const std::pair<p2p::PeerId, double>& c) {
    return c.first == candidate;
  };
  if (std::any_of(state.candidates.begin(), state.candidates.end(), already)) return 0;
  if (std::find(state.cached.begin(), state.cached.end(), candidate) != state.cached.end()) {
    // Already met and learned from; meeting it again teaches little. Without
    // this skip fig09's pre-meetings footrule at 3000 meetings is
    // 0.115-0.132 over five seeds, worse than random's 0.107-0.122.
    return 0;
  }
  // Pre-meeting: fetch the candidate's successors signature and estimate
  // Containment(successors(C), local(owner)).
  EnsureSignatures(candidate);
  EnsureSignatures(owner);
  // EstimateContainment(succ(C), local(owner)) = the fraction of the owner's
  // local pages that C's pages link to.
  const double containment = synopses::EstimateContainment(
      StateOf(candidate).successors_signature, StateOf(owner).local_signature);
  state.candidates.emplace_back(candidate, containment);
  std::sort(state.candidates.begin(), state.candidates.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  if (state.candidates.size() > kMaxCandidates) {
    state.candidates.erase(state.candidates.begin());
  }
  return SignatureBytes();
}

p2p::PeerId PreMeetingSelector::SelectPartner(p2p::PeerId initiator,
                                              const p2p::Network& network, Random& rng) {
  PeerState& state = StateOf(initiator);
  ++state.selections;
  // Fairness: every k-th pick is uniformly random (Section 5.3), and so is
  // the very first one (nothing is known yet).
  if (options_.random_every_k > 0 && state.selections % options_.random_every_k == 0) {
    return network.RandomPeer(rng, initiator);
  }
  // Best candidate, if any.
  while (!state.candidates.empty()) {
    const p2p::PeerId best = state.candidates.back().first;
    state.candidates.pop_back();  // Dropped from the temporary list once used.
    if (best != initiator) return best;
  }
  return network.RandomPeer(rng, initiator);
}

double PreMeetingSelector::AfterMeeting(p2p::PeerId a, p2p::PeerId b) {
  EnsureSignatures(a);
  EnsureSignatures(b);
  PeerState& sa = StateOf(a);
  PeerState& sb = StateOf(b);
  // The meeting piggybacks both peers' two signatures (local + successors).
  double bytes = 4 * SignatureBytes();

  const double containment_b_into_a =
      synopses::EstimateContainment(sb.successors_signature, sa.local_signature);
  const double containment_a_into_b =
      synopses::EstimateContainment(sa.successors_signature, sb.local_signature);
  if (containment_b_into_a > options_.containment_threshold) CachePeer(sa, b);
  if (containment_a_into_b > options_.containment_threshold) CachePeer(sb, a);

  // High overlap of the local page sets => peers likely profit from each
  // other's caches: exchange the cached-id lists and run pre-meetings
  // against the received ids.
  const double overlap =
      synopses::EstimateResemblance(sa.local_signature, sb.local_signature);
  if (overlap > options_.overlap_threshold) {
    bytes += static_cast<double>(sa.cached.size() + sb.cached.size()) * 8;
    const std::vector<p2p::PeerId> from_b = sb.cached;  // Copy: Consider mutates.
    const std::vector<p2p::PeerId> from_a = sa.cached;
    for (p2p::PeerId candidate : from_b) {
      if (candidate != b) bytes += ConsiderCandidate(a, sa, candidate);
    }
    for (p2p::PeerId candidate : from_a) {
      if (candidate != a) bytes += ConsiderCandidate(b, sb, candidate);
    }
  }
  return bytes;
}

}  // namespace core
}  // namespace jxp
