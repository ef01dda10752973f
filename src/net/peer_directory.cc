#include "net/peer_directory.h"

#include <algorithm>

namespace jxp {
namespace net {

void PeerDirectory::ObserveDirect(uint32_t peer_id, uint16_t port, uint64_t now_ms) {
  if (peer_id == self_id_) return;
  Entry& entry = entries_[peer_id];
  entry.peer_id = peer_id;
  entry.port = port;
  entry.last_heard_ms = now_ms;
  entry.departed = false;  // First-hand contact beats any tombstone.
}

void PeerDirectory::ObserveGossip(const GossipEntry& gossiped, uint64_t now_ms) {
  if (gossiped.peer_id == self_id_) return;
  // Rumors at or beyond the staleness horizon are worthless: the entry
  // would be evicted on sight, and accepting it could resurrect a
  // tombstone that eviction bookkeeping already settled.
  if (gossiped.age_ms >= staleness_ms_) return;
  const uint64_t heard_ms = now_ms >= gossiped.age_ms ? now_ms - gossiped.age_ms : 0;

  auto it = entries_.find(gossiped.peer_id);
  if (it == entries_.end()) {
    // Unknown peer: adopt the rumor, tombstoned or not. (A departed rumor
    // about an unknown peer is still worth keeping — it stops us from
    // adopting a staler "alive" rumor later.)
    Entry entry;
    entry.peer_id = gossiped.peer_id;
    entry.port = gossiped.port;
    entry.last_heard_ms = heard_ms;
    entry.departed = gossiped.departed;
    entries_.emplace(gossiped.peer_id, entry);
    return;
  }
  Entry& entry = it->second;
  if (entry.departed) return;  // Sticky: gossip never resurrects.
  if (gossiped.departed) {
    // Departure propagates regardless of relative freshness.
    entry.departed = true;
    entry.last_heard_ms = std::max(entry.last_heard_ms, heard_ms);
    return;
  }
  if (heard_ms > entry.last_heard_ms) {
    entry.port = gossiped.port;
    entry.last_heard_ms = heard_ms;
  }
}

void PeerDirectory::MarkDeparted(uint32_t peer_id, uint64_t now_ms) {
  if (peer_id == self_id_) return;
  Entry& entry = entries_[peer_id];
  entry.peer_id = peer_id;
  entry.departed = true;
  entry.last_heard_ms = now_ms;
}

size_t PeerDirectory::EvictStale(uint64_t now_ms) {
  size_t evicted = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& entry = it->second;
    const uint64_t age = now_ms >= entry.last_heard_ms ? now_ms - entry.last_heard_ms : 0;
    if (!entry.departed && age >= staleness_ms_) {
      it = entries_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  return evicted;
}

std::vector<GossipEntry> PeerDirectory::GossipSample(uint64_t now_ms,
                                                     size_t max_entries,
                                                     Random& rng) const {
  std::vector<GossipEntry> all;
  all.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    GossipEntry out;
    out.peer_id = entry.peer_id;
    out.port = entry.port;
    out.age_ms = static_cast<uint32_t>(
        now_ms >= entry.last_heard_ms ? now_ms - entry.last_heard_ms : 0);
    out.departed = entry.departed;
    all.push_back(out);
  }
  if (all.size() <= max_entries) return all;
  // Partial Fisher-Yates: a uniform sample, deterministic under the stream.
  for (size_t i = 0; i < max_entries; ++i) {
    const size_t j = i + static_cast<size_t>(rng.NextBounded(all.size() - i));
    std::swap(all[i], all[j]);
  }
  all.resize(max_entries);
  return all;
}

std::vector<PeerDirectory::Entry> PeerDirectory::AlivePeers() const {
  std::vector<Entry> alive;
  for (const auto& [id, entry] : entries_) {
    if (!entry.departed) alive.push_back(entry);
  }
  return alive;
}

bool PeerDirectory::SelectPartner(Random& rng, Entry* out) const {
  const std::vector<Entry> alive = AlivePeers();
  if (alive.empty()) return false;
  *out = alive[static_cast<size_t>(rng.NextBounded(alive.size()))];
  return true;
}

const PeerDirectory::Entry* PeerDirectory::Find(uint32_t peer_id) const {
  const auto it = entries_.find(peer_id);
  return it == entries_.end() ? nullptr : &it->second;
}

}  // namespace net
}  // namespace jxp
