// Churn/selector consistency: a PeerSelector must never propose a departed
// peer, no matter how its internal cache and candidate lists age across
// departures and rejoins. The PreMeetingSelector keeps per-peer state
// (cached ids, measured candidates) that can reference peers long gone —
// these tests hammer exactly that staleness.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/peer_selection.h"
#include "core/simulation.h"
#include "graph/generators.h"
#include "graph/subgraph.h"

namespace jxp {
namespace core {
namespace {

std::vector<JxpPeer> MakePeers(const graph::Graph& graph, size_t num_peers,
                               const JxpOptions& options) {
  std::vector<std::vector<graph::PageId>> fragments(num_peers);
  for (graph::PageId p = 0; p < graph.NumNodes(); ++p) {
    fragments[p % num_peers].push_back(p);
    if (p % 4 == 0) fragments[(p + 1) % num_peers].push_back(p);
  }
  std::vector<JxpPeer> peers;
  peers.reserve(num_peers);
  for (size_t p = 0; p < num_peers; ++p) {
    peers.emplace_back(static_cast<p2p::PeerId>(p),
                       graph::Subgraph::Induce(graph, fragments[p]),
                       graph.NumNodes(), options);
  }
  return peers;
}

TEST(ChurnSelectorTest, CachedAndCandidatePeersAreFilteredWhenDeparted) {
  Random rng(5);
  const graph::Graph graph = graph::BarabasiAlbert(80, 3, rng);
  JxpOptions options;
  std::vector<JxpPeer> peers = MakePeers(graph, 4, options);

  PreMeetingSelector::Options selector_options;
  // Cache every met peer and always exchange cache lists, so the selector's
  // memory fills with ids regardless of fragment statistics.
  selector_options.containment_threshold = -1.0;
  selector_options.overlap_threshold = -1.0;
  selector_options.random_every_k = 0;  // No forced-random picks.
  PreMeetingSelector selector(selector_options, &peers);

  p2p::Network network;
  for (size_t p = 0; p < peers.size(); ++p) network.AddPeer();

  // Peer 1 meets 2 and 3 and caches both; its meeting with peer 0 then
  // queues 2 and 3 as peer 0's candidates.
  for (p2p::PeerId partner = 2; partner < 4; ++partner) {
    JxpPeer::Meet(peers[1], peers[partner]);
    selector.AfterMeeting(1, partner, network);
  }
  JxpPeer::Meet(peers[0], peers[1]);
  selector.AfterMeeting(0, 1, network);

  // Depart both candidates and select repeatedly: only the remaining alive
  // peer may come back, through the random fallback.
  network.Leave(2);
  network.Leave(3);
  for (int i = 0; i < 50; ++i) {
    const p2p::PeerId partner = selector.SelectPartner(0, network, rng);
    ASSERT_NE(partner, p2p::kInvalidPeer);
    EXPECT_EQ(partner, 1u) << "proposed a departed peer";
    EXPECT_TRUE(network.IsAlive(partner));
  }

  // A departed peer that rejoins is proposable again.
  network.Rejoin(3);
  bool saw_rejoined = false;
  for (int i = 0; i < 50 && !saw_rejoined; ++i) {
    saw_rejoined = selector.SelectPartner(0, network, rng) == 3;
  }
  EXPECT_TRUE(saw_rejoined) << "rejoined peer never proposed again";
}

TEST(ChurnSelectorTest, SelectorNeverProposesDepartedPeerUnderHeavyChurn) {
  Random rng(11);
  const graph::Graph graph = graph::BarabasiAlbert(120, 3, rng);
  JxpOptions options;
  std::vector<JxpPeer> peers = MakePeers(graph, 8, options);

  PreMeetingSelector::Options selector_options;
  selector_options.containment_threshold = 0.01;
  selector_options.overlap_threshold = 0.05;
  selector_options.random_every_k = 3;
  PreMeetingSelector selector(selector_options, &peers);

  p2p::Network network;
  for (size_t p = 0; p < peers.size(); ++p) network.AddPeer();

  // Interleave meetings (which populate caches/candidates) with aggressive
  // membership changes; every single proposal must be alive and distinct.
  for (int step = 0; step < 600; ++step) {
    if (network.NumAlive() > 3 && rng.NextBool(0.3)) {
      network.Leave(network.RandomAlivePeer(rng, p2p::kInvalidPeer));
    }
    if (network.NumAlive() < network.NumPeers() && rng.NextBool(0.3)) {
      std::vector<p2p::PeerId> departed;
      for (p2p::PeerId p = 0; p < network.NumPeers(); ++p) {
        if (!network.IsAlive(p)) departed.push_back(p);
      }
      network.Rejoin(departed[rng.NextBounded(departed.size())]);
    }
    const p2p::PeerId initiator = network.RandomAlivePeer(rng, p2p::kInvalidPeer);
    const p2p::PeerId partner = selector.SelectPartner(initiator, network, rng);
    ASSERT_NE(partner, p2p::kInvalidPeer) << "step " << step;
    ASSERT_NE(partner, initiator) << "step " << step;
    ASSERT_TRUE(network.IsAlive(partner))
        << "step " << step << ": departed peer " << partner << " proposed";
    JxpPeer::Meet(peers[initiator], peers[partner]);
    selector.AfterMeeting(initiator, partner, network);
  }
}

TEST(ChurnSelectorTest, SimulationWithChurnAndPreMeetingsCompletes) {
  // End-to-end regression: the simulation's own invariant (JXP_CHECK on
  // every proposal) runs under churn with the pre-meetings strategy.
  Random rng(23);
  const graph::Graph graph = graph::BarabasiAlbert(150, 3, rng);
  std::vector<std::vector<graph::PageId>> fragments(10);
  for (graph::PageId p = 0; p < 150; ++p) fragments[p % 10].push_back(p);

  SimulationConfig config;
  config.strategy = SelectionStrategy::kPreMeetings;
  config.pre_meeting.containment_threshold = 0.01;
  config.pre_meeting.overlap_threshold = 0.05;
  config.churn.leave_probability = 0.3;
  config.churn.join_probability = 0.3;
  config.churn.min_alive = 4;
  config.seed = 7;
  JxpSimulation sim(graph, std::move(fragments), config);

  sim.RunMeetings(500);
  EXPECT_EQ(sim.meetings_done(), 500u);
  for (const JxpPeer& peer : sim.peers()) {
    EXPECT_GT(peer.world_score(), 0.0);
    EXPECT_LT(peer.world_score(), 1.0);
  }
}

}  // namespace
}  // namespace core
}  // namespace jxp
