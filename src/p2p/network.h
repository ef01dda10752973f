#ifndef JXP_P2P_NETWORK_H_
#define JXP_P2P_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace jxp {
namespace p2p {

/// Identifier of a peer in the network.
using PeerId = uint32_t;

/// Sentinel for "no peer".
inline constexpr PeerId kInvalidPeer = static_cast<PeerId>(-1);

/// Aggregate view of a traffic series: totals over its meetings.
struct PeerTrafficSummary {
  double total_bytes = 0;
  double mean_bytes = 0;
  double max_bytes = 0;
  size_t num_meetings = 0;

  /// Folds another summary into this one.
  void MergeFrom(const PeerTrafficSummary& other);
};

/// Per-peer network traffic bookkeeping: the bytes each of the peer's
/// meetings moved (both directions), in meeting order. Figures 11/12 plot
/// quartiles of this series across peers.
struct PeerTraffic {
  /// bytes_per_meeting[m] = bytes exchanged in the peer's m-th meeting.
  std::vector<double> bytes_per_meeting;
  /// Total bytes over all meetings.
  double total_bytes = 0;

  void RecordMeeting(double bytes) {
    bytes_per_meeting.push_back(bytes);
    total_bytes += bytes;
  }

  /// Summary statistics over the series.
  PeerTrafficSummary Summary() const;
};

/// Registry of peers in a simulated P2P overlay: how much traffic each has
/// caused, and a uniformly random pick among them. Peer state itself
/// (graphs, scores) lives with the application (core::JxpSimulation); this
/// class models the wire.
class Network {
 public:
  Network() = default;

  /// Adds a peer and returns its id.
  PeerId AddPeer();

  /// Number of peers ever added.
  size_t NumPeers() const { return traffic_.size(); }

  /// A uniformly random peer different from `exclude` (pass kInvalidPeer
  /// for no exclusion). Requires at least one eligible peer.
  PeerId RandomPeer(Random& rng, PeerId exclude) const;

  /// Records that a meeting of `peer` moved `bytes` bytes.
  void RecordMeetingTraffic(PeerId peer, double bytes) {
    JXP_CHECK_LT(peer, traffic_.size());
    traffic_[peer].RecordMeeting(bytes);
  }

  /// Traffic history of a peer.
  const PeerTraffic& TrafficOf(PeerId peer) const {
    JXP_CHECK_LT(peer, traffic_.size());
    return traffic_[peer];
  }

  /// Total bytes moved by all meetings so far.
  double TotalTrafficBytes() const;

  /// Network-wide traffic summary: every peer's series merged into one.
  /// Note each meeting is recorded by both endpoints, so totals here count
  /// each exchange twice — same convention as TotalTrafficBytes.
  PeerTrafficSummary AggregateTraffic() const;

 private:
  std::vector<PeerTraffic> traffic_;
};

}  // namespace p2p
}  // namespace jxp

#endif  // JXP_P2P_NETWORK_H_
