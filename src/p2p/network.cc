#include "p2p/network.h"

#include <algorithm>

namespace jxp {
namespace p2p {

void PeerTrafficSummary::MergeFrom(const PeerTrafficSummary& other) {
  total_bytes += other.total_bytes;
  max_bytes = std::max(max_bytes, other.max_bytes);
  num_meetings += other.num_meetings;
  mean_bytes = num_meetings > 0 ? total_bytes / static_cast<double>(num_meetings) : 0;
}

PeerTrafficSummary PeerTraffic::Summary() const {
  PeerTrafficSummary summary;
  for (double bytes : bytes_per_meeting) {
    summary.max_bytes = std::max(summary.max_bytes, bytes);
  }
  summary.total_bytes = total_bytes;
  summary.num_meetings = bytes_per_meeting.size();
  summary.mean_bytes = summary.num_meetings > 0
                           ? total_bytes / static_cast<double>(summary.num_meetings)
                           : 0;
  return summary;
}

PeerId Network::AddPeer() {
  traffic_.emplace_back();
  return static_cast<PeerId>(traffic_.size() - 1);
}

PeerId Network::RandomPeer(Random& rng, PeerId exclude) const {
  const size_t eligible = NumPeers() - (exclude < NumPeers() ? 1 : 0);
  JXP_CHECK_GT(eligible, 0u) << "no eligible peer to pick";
  while (true) {
    const PeerId p = static_cast<PeerId>(rng.NextBounded(NumPeers()));
    if (p != exclude) return p;
  }
}

double Network::TotalTrafficBytes() const {
  double total = 0;
  for (const PeerTraffic& t : traffic_) total += t.total_bytes;
  return total;
}

PeerTrafficSummary Network::AggregateTraffic() const {
  PeerTrafficSummary aggregate;
  for (const PeerTraffic& t : traffic_) aggregate.MergeFrom(t.Summary());
  return aggregate;
}

}  // namespace p2p
}  // namespace jxp
