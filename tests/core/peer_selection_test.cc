#include "core/peer_selection.h"

#include <gtest/gtest.h>

#include "graph/generators.h"

namespace jxp {
namespace core {
namespace {

/// A network whose link structure makes peer 2 the clear in-link donor for
/// peer 0: peer 2's pages point into peer 0's pages, while peer 3 holds an
/// unrelated region. Peer 1 overlaps peer 0 heavily (cache exchange).
struct SelectorFixture {
  SelectorFixture() {
    graph::GraphBuilder builder(40);
    // Pages 0-9 belong to peer 0 (and largely to peer 1).
    // Pages 20-29 (peer 2) all point into 0-9.
    for (graph::PageId u = 20; u < 30; ++u) {
      builder.AddEdge(u, u - 20);
      builder.AddEdge(u, (u - 20 + 1) % 10);
    }
    // Pages 30-39 (peer 3) form a separate cycle.
    for (graph::PageId u = 30; u < 40; ++u) {
      builder.AddEdge(u, u == 39 ? 30 : u + 1);
    }
    // Pages 0-9 link forward among themselves.
    for (graph::PageId u = 0; u < 10; ++u) builder.AddEdge(u, (u + 1) % 10);
    graph = builder.Build();

    JxpOptions options;
    options.pr_tolerance = 1e-10;
    std::vector<std::vector<graph::PageId>> fragments = {
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
        {0, 1, 2, 3, 4, 5, 6, 7, 8, 19},  // Overlaps peer 0 on 9 pages.
        {20, 21, 22, 23, 24, 25, 26, 27, 28, 29},
        {30, 31, 32, 33, 34, 35, 36, 37, 38, 39},
    };
    for (size_t p = 0; p < fragments.size(); ++p) {
      network.AddPeer();
      peers.emplace_back(static_cast<p2p::PeerId>(p),
                         graph::Subgraph::Induce(graph, fragments[p]), graph.NumNodes(),
                         options);
    }
  }

  graph::Graph graph;
  p2p::Network network;
  std::vector<JxpPeer> peers;
};

TEST(RandomPeerSelectorTest, NeverPicksInitiatorOrDeadPeers) {
  SelectorFixture fx;
  RandomPeerSelector selector;
  Random rng(1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(selector.SelectPartner(0, fx.network, rng), 0u);
  }
}

TEST(PreMeetingSelectorTest, CachesHighContainmentPeers) {
  SelectorFixture fx;
  PreMeetingSelector::Options options;
  options.mips_permutations = 128;
  options.containment_threshold = 0.3;
  options.random_every_k = 1000;  // Effectively disable for this test.
  PreMeetingSelector selector(options, &fx.peers);
  // Peer 0 meets peer 2 (whose successors cover all of peer 0's pages) and
  // peer 3 (whose pages link nowhere near peer 0's): only 2 is cached.
  EXPECT_GT(selector.AfterMeeting(0, 2), 0.0);
  selector.AfterMeeting(0, 3);
  // The cache is seen through the exchange with the overlapping peer 1: the
  // meeting moves four signatures, the cached-id lists (peer 1 caches 0;
  // peer 0 caches 2 and now 1) and one pre-meeting, against candidate 2. A
  // cached 3 would add an id and a second pre-meeting.
  const double signature = selector.SignatureBytes();
  EXPECT_DOUBLE_EQ(selector.AfterMeeting(1, 0), 5 * signature + 3 * 8);
  Random rng(7);
  EXPECT_EQ(selector.SelectPartner(1, fx.network, rng), 2u);
}

TEST(PreMeetingSelectorTest, OverlapTriggersCacheExchange) {
  SelectorFixture fx;
  PreMeetingSelector::Options options;
  options.mips_permutations = 128;
  options.containment_threshold = 0.3;
  options.overlap_threshold = 0.5;
  options.random_every_k = 1000;  // Effectively disable for this test.
  PreMeetingSelector selector(options, &fx.peers);
  // Peer 1 learns that peer 2 is a good in-link donor.
  selector.AfterMeeting(1, 2);
  // Peers 0 and 1 overlap strongly: peer 0 should receive peer 1's cache
  // (containing peer 2) as a candidate...
  selector.AfterMeeting(0, 1);
  // ...and pick it next.
  Random rng(3);
  EXPECT_EQ(selector.SelectPartner(0, fx.network, rng), 2u);
}

TEST(PreMeetingSelectorTest, EveryKthSelectionIsRandom) {
  SelectorFixture fx;
  PreMeetingSelector::Options options;
  options.random_every_k = 2;
  options.containment_threshold = -1.0;  // Cache everyone.
  PreMeetingSelector selector(options, &fx.peers);
  // Peer 1 caches peers 2 and 3. Each meeting of peers 0 and 1 then queues
  // both as peer 0's candidates (peer 0 never meets them, so never caches
  // them); 2, whose pages link into peer 0's, ranks first.
  selector.AfterMeeting(1, 2);
  selector.AfterMeeting(1, 3);
  Random rng(11);
  // With k = 2 the odd picks take the best candidate, and the even picks are
  // uniform although candidate 3 is still queued: over many rounds they
  // reach every peer (fairness precondition of Theorem 5.4).
  std::vector<int> kth_counts(4, 0);
  for (int i = 0; i < 150; ++i) {
    selector.AfterMeeting(0, 1);
    ASSERT_EQ(selector.SelectPartner(0, fx.network, rng), 2u) << "round " << i;
    kth_counts[selector.SelectPartner(0, fx.network, rng)]++;
  }
  EXPECT_GT(kth_counts[1], 0);
  EXPECT_GT(kth_counts[2], 0);
  EXPECT_GT(kth_counts[3], 0);
}

TEST(PreMeetingSelectorTest, FragmentChangeClearsState) {
  SelectorFixture fx;
  PreMeetingSelector::Options options;
  options.containment_threshold = 0.0;
  options.random_every_k = 1000;
  PreMeetingSelector selector(options, &fx.peers);
  selector.AfterMeeting(0, 2);
  selector.OnFragmentChanged(0);
  // With the cache cleared and no candidates, selection falls back to
  // random (works without crashing, never picks self).
  Random rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(selector.SelectPartner(0, fx.network, rng), 0u);
  }
}

}  // namespace
}  // namespace core
}  // namespace jxp
