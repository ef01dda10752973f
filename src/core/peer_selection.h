#ifndef JXP_CORE_PEER_SELECTION_H_
#define JXP_CORE_PEER_SELECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/jxp_peer.h"
#include "p2p/network.h"
#include "synopses/minwise.h"

namespace jxp {
namespace core {

/// Strategy interface for choosing the next meeting partner (Section 4.3).
///
/// Implementations may keep per-peer state (caches, candidate lists) and may
/// read the peers' fragments through the attached peer vector. AfterMeeting
/// is invoked once per completed meeting and returns any extra bytes the
/// strategy's bookkeeping moved (piggybacked synopses, cache-list exchange).
class PeerSelector {
 public:
  virtual ~PeerSelector() = default;

  /// Chooses a partner != initiator.
  virtual p2p::PeerId SelectPartner(p2p::PeerId initiator, const p2p::Network& network,
                                    Random& rng) = 0;

  /// Hook called after peers `a` and `b` finished a meeting.
  virtual double AfterMeeting(p2p::PeerId a, p2p::PeerId b) = 0;

  /// Hook called when a peer's fragment changed (re-crawl).
  virtual void OnFragmentChanged(p2p::PeerId peer) = 0;
};

/// The baseline strategy: uniformly random partner.
class RandomPeerSelector : public PeerSelector {
 public:
  RandomPeerSelector() = default;

  p2p::PeerId SelectPartner(p2p::PeerId initiator, const p2p::Network& network,
                            Random& rng) override {
    return network.RandomPeer(rng, initiator);
  }

  double AfterMeeting(p2p::PeerId, p2p::PeerId) override { return 0; }
  void OnFragmentChanged(p2p::PeerId) override {}
};

/// The pre-meetings strategy (Section 4.3), driven by min-wise permutation
/// synopses:
///
/// - every peer carries two MIPs signatures, local(A) over its page set and
///   successors(A) over the union of its pages' successor lists;
/// - after a meeting of A and B, A caches B's id if
///   Containment(successors(B), local(A)) exceeds `containment_threshold`
///   (B's pages send many in-links into A), and vice versa;
/// - if additionally the two peers' page sets overlap strongly
///   (resemblance above `overlap_threshold`), they exchange their cached-id
///   lists; the received ids become *candidates*, each measured by a
///   pre-meeting that transfers only the candidate's successors signature;
/// - at selection time the best-scored candidate is taken, and dropped from
///   the list; with no candidate queued the pick is a uniformly random peer.
///   Every k-th selection is uniformly random as well, so the meeting
///   sequence stays fair (the precondition of Theorem 5.4).
///
/// The cache is not a selection source: it only feeds the other peers'
/// candidate lists through the exchange.
class PreMeetingSelector : public PeerSelector {
 public:
  struct Options {
    /// Signature length (number of permutations).
    size_t mips_permutations = 64;
    /// Cache a met peer whose successors->local containment exceeds this.
    double containment_threshold = 0.05;
    /// Exchange cached-id lists when local-set resemblance exceeds this.
    double overlap_threshold = 0.2;
    /// Every k-th selection is uniformly random (fairness knob).
    size_t random_every_k = 10;
  };

  /// `peers` must outlive the selector and hold one JxpPeer per network
  /// peer, indexed by PeerId.
  PreMeetingSelector(const Options& options, const std::vector<JxpPeer>* peers);

  p2p::PeerId SelectPartner(p2p::PeerId initiator, const p2p::Network& network,
                            Random& rng) override;
  double AfterMeeting(p2p::PeerId a, p2p::PeerId b) override;
  void OnFragmentChanged(p2p::PeerId peer) override;

  /// Wire size of one signature (vector of 8-byte minima + set size).
  double SignatureBytes() const {
    return static_cast<double>(options_.mips_permutations) * 8 + 8;
  }

 private:
  struct PeerState {
    synopses::MinWiseSignature local_signature;
    synopses::MinWiseSignature successors_signature;
    bool signatures_ready = false;
    /// Ids of peers with high in-link contribution, oldest first.
    std::vector<p2p::PeerId> cached;
    /// (candidate id, estimated containment), best last.
    std::vector<std::pair<p2p::PeerId, double>> candidates;
    size_t selections = 0;
  };

  PeerState& StateOf(p2p::PeerId peer);
  void EnsureSignatures(p2p::PeerId peer);

  /// Adds `candidate` to `state`'s candidate list, measuring it by a
  /// pre-meeting (transfers one successors signature). Returns the bytes
  /// moved (0 if the candidate was skipped).
  double ConsiderCandidate(p2p::PeerId owner, PeerState& state, p2p::PeerId candidate);

  void CachePeer(PeerState& state, p2p::PeerId peer);

  Options options_;
  const std::vector<JxpPeer>* peers_;
  synopses::MinWiseFamily family_;
  std::vector<PeerState> states_;
};

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_PEER_SELECTION_H_
