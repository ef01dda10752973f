#ifndef JXP_NET_PEER_DIRECTORY_H_
#define JXP_NET_PEER_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "net/net_protocol.h"

namespace jxp {
namespace net {

/// Each daemon's view of who else is in the cluster (DESIGN.md §6k): a seed
/// list plus whatever gossip (kPeerExchange) and direct contact teach it.
///
/// Rules, in priority order:
///   1. Departure is sticky. A peer that said Goodbye (or was gossiped as
///      departed) stays a tombstone; *gossip can never resurrect it* — only
///      hearing from the peer itself (ObserveDirect) clears the tombstone.
///      Gossip is second-hand and unordered: a stale "alive" rumor must not
///      undo a first-hand departure.
///   2. Freshness wins among rumors. Entries keep the smallest age seen;
///      gossip older than the staleness horizon is discarded outright
///      (anything that old will be evicted immediately anyway, and
///      accepting it would let an evicted tombstone sneak back in as live).
///   3. Eviction forgets only the living. EvictStale removes live entries
///      not heard from within `staleness_ms`; tombstones are retained for
///      the directory's lifetime (bounded by cluster size), which is what
///      makes rule 1 enforceable.
///
/// Clocks never cross process boundaries: gossip carries *ages* relative to
/// the sender, rebased onto the local clock on receipt.
/// The daemons' staleness horizon: a peer silent this long is evicted.
inline constexpr uint64_t kDirectoryStalenessMs = 30000;

class PeerDirectory {
 public:
  explicit PeerDirectory(uint32_t self_id, uint64_t staleness_ms = kDirectoryStalenessMs)
      : self_id_(self_id), staleness_ms_(staleness_ms) {}

  struct Entry {
    uint32_t peer_id = 0;
    uint16_t port = 0;
    /// Local-clock instant the peer was last heard of (possibly via rumor).
    uint64_t last_heard_ms = 0;
    bool departed = false;
  };

  /// First-hand contact (Hello, meeting, control introduction): refreshes
  /// the entry and clears any tombstone.
  void ObserveDirect(uint32_t peer_id, uint16_t port, uint64_t now_ms);

  /// Second-hand rumor from a kPeerExchange. `entry.age_ms` is relative to
  /// the sender; entries about self, older rumors, and rumors about
  /// tombstoned peers are ignored. A `departed` rumor tombstones a live
  /// entry (departure propagates through gossip; liveness does not).
  void ObserveGossip(const GossipEntry& entry, uint64_t now_ms);

  /// First-hand departure (Goodbye frame, or connection refused on dial).
  void MarkDeparted(uint32_t peer_id, uint64_t now_ms);

  /// Removes live entries not heard from within the staleness horizon.
  /// Returns how many were evicted. Tombstones are never removed.
  size_t EvictStale(uint64_t now_ms);

  /// A bounded sample of the directory for a kPeerExchange frame, ages
  /// rebased to `now_ms`. Tombstones are included so departures propagate.
  /// Sampling is deterministic given the Random stream.
  std::vector<GossipEntry> GossipSample(uint64_t now_ms, size_t max_entries,
                                        Random& rng) const;

  /// Live (non-departed) peers, ascending id — deterministic.
  std::vector<Entry> AlivePeers() const;

  /// Uniformly random live peer; false when none.
  bool SelectPartner(Random& rng, Entry* out) const;

  const Entry* Find(uint32_t peer_id) const;
  size_t size() const { return entries_.size(); }
  uint64_t staleness_ms() const { return staleness_ms_; }

 private:
  uint32_t self_id_;
  uint64_t staleness_ms_;
  /// Ordered map: iteration order (and thus sampling and partner selection
  /// under a fixed Random stream) is deterministic.
  std::map<uint32_t, Entry> entries_;
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_PEER_DIRECTORY_H_
