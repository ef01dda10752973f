#include "net/peer_directory.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace jxp {
namespace net {
namespace {

GossipEntry Rumor(uint32_t peer_id, uint16_t port, uint32_t age_ms,
                  bool departed = false) {
  GossipEntry entry;
  entry.peer_id = peer_id;
  entry.port = port;
  entry.age_ms = age_ms;
  entry.departed = departed;
  return entry;
}

TEST(PeerDirectoryTest, ObserveDirectAddsAndRefreshes) {
  PeerDirectory directory(/*self_id=*/0, /*staleness_ms=*/1000);
  directory.ObserveDirect(1, 5000, 10);
  ASSERT_NE(directory.Find(1), nullptr);
  EXPECT_EQ(directory.Find(1)->port, 5000);
  EXPECT_EQ(directory.Find(1)->last_heard_ms, 10u);
  directory.ObserveDirect(1, 5001, 20);
  EXPECT_EQ(directory.Find(1)->port, 5001);
  EXPECT_EQ(directory.Find(1)->last_heard_ms, 20u);
  EXPECT_EQ(directory.size(), 1u);
}

TEST(PeerDirectoryTest, SelfIsNeverRecorded) {
  PeerDirectory directory(7);
  directory.ObserveDirect(7, 5000, 10);
  directory.ObserveGossip(Rumor(7, 5000, 0), 10);
  EXPECT_EQ(directory.size(), 0u);
}

// The satellite guarantee: once a peer departs, gossip alone can never make
// it look alive again — no matter how fresh the rumor — and eviction never
// forgets the tombstone. Only first-hand contact resurrects.
TEST(PeerDirectoryTest, StalenessEvictionNeverResurrectsDepartedPeers) {
  PeerDirectory directory(/*self_id=*/0, /*staleness_ms=*/100);
  directory.ObserveDirect(1, 5000, 10);
  directory.MarkDeparted(1, 20);
  ASSERT_TRUE(directory.Find(1)->departed);

  // The freshest possible "alive" rumor does not resurrect.
  directory.ObserveGossip(Rumor(1, 5000, 0), 30);
  EXPECT_TRUE(directory.Find(1)->departed);
  EXPECT_TRUE(directory.AlivePeers().empty());

  // Eviction far past the horizon removes live entries, not tombstones...
  directory.ObserveDirect(2, 6000, 30);
  EXPECT_EQ(directory.EvictStale(100000), 1u);  // Peer 2 evicted.
  ASSERT_NE(directory.Find(1), nullptr);
  EXPECT_TRUE(directory.Find(1)->departed);
  EXPECT_EQ(directory.Find(2), nullptr);

  // ...and even after eviction churn, gossip still cannot resurrect.
  directory.ObserveGossip(Rumor(1, 5000, 0), 100010);
  EXPECT_TRUE(directory.Find(1)->departed);

  // First-hand contact is the only way back.
  directory.ObserveDirect(1, 5002, 100020);
  EXPECT_FALSE(directory.Find(1)->departed);
  EXPECT_EQ(directory.Find(1)->port, 5002);
}

TEST(PeerDirectoryTest, DepartedRumorTombstonesLiveEntry) {
  PeerDirectory directory(0, 1000);
  directory.ObserveDirect(1, 5000, 10);
  // Even an *older* departed rumor wins: departure propagates regardless of
  // relative freshness.
  directory.ObserveGossip(Rumor(1, 5000, 500, /*departed=*/true), 100);
  EXPECT_TRUE(directory.Find(1)->departed);
}

TEST(PeerDirectoryTest, DepartedRumorAboutUnknownPeerIsKept) {
  PeerDirectory directory(0, 1000);
  directory.ObserveGossip(Rumor(3, 7000, 10, /*departed=*/true), 50);
  ASSERT_NE(directory.Find(3), nullptr);
  EXPECT_TRUE(directory.Find(3)->departed);
  // A later alive rumor (even fresher) must not flip the tombstone.
  directory.ObserveGossip(Rumor(3, 7000, 0), 60);
  EXPECT_TRUE(directory.Find(3)->departed);
}

TEST(PeerDirectoryTest, RumorsAtOrBeyondStalenessHorizonAreDiscarded) {
  PeerDirectory directory(0, 1000);
  directory.ObserveGossip(Rumor(1, 5000, 1000), 2000);
  EXPECT_EQ(directory.Find(1), nullptr);
  directory.ObserveGossip(Rumor(1, 5000, 999), 2000);
  EXPECT_NE(directory.Find(1), nullptr);
}

TEST(PeerDirectoryTest, FresherRumorWinsStalerIsIgnored) {
  PeerDirectory directory(0, 10000);
  directory.ObserveGossip(Rumor(1, 5000, 100), 1000);  // Heard at 900.
  directory.ObserveGossip(Rumor(1, 6000, 500), 1000);  // Heard at 500: staler.
  EXPECT_EQ(directory.Find(1)->port, 5000);
  directory.ObserveGossip(Rumor(1, 7000, 50), 1000);  // Heard at 950: fresher.
  EXPECT_EQ(directory.Find(1)->port, 7000);
}

TEST(PeerDirectoryTest, GossipSampleRebasesAgesAndIncludesTombstones) {
  PeerDirectory directory(0, 10000);
  directory.ObserveDirect(1, 5000, 100);
  directory.MarkDeparted(2, 200);
  Random rng(1);
  const std::vector<GossipEntry> sample = directory.GossipSample(300, 10, rng);
  ASSERT_EQ(sample.size(), 2u);
  bool saw_live = false, saw_tombstone = false;
  for (const GossipEntry& entry : sample) {
    if (entry.peer_id == 1) {
      saw_live = true;
      EXPECT_EQ(entry.age_ms, 200u);
      EXPECT_FALSE(entry.departed);
    }
    if (entry.peer_id == 2) {
      saw_tombstone = true;
      EXPECT_EQ(entry.age_ms, 100u);
      EXPECT_TRUE(entry.departed);
    }
  }
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_tombstone);
}

TEST(PeerDirectoryTest, GossipSampleRespectsBound) {
  PeerDirectory directory(0, 1u << 30);
  for (uint32_t id = 1; id <= 50; ++id) directory.ObserveDirect(id, 5000, 10);
  Random rng(7);
  const std::vector<GossipEntry> sample = directory.GossipSample(20, 8, rng);
  EXPECT_EQ(sample.size(), 8u);
}

TEST(PeerDirectoryTest, SelectPartnerSkipsTombstonesAndEmptyDirectory) {
  PeerDirectory directory(0, 1000);
  Random rng(3);
  PeerDirectory::Entry partner;
  EXPECT_FALSE(directory.SelectPartner(rng, &partner));
  directory.MarkDeparted(1, 10);
  EXPECT_FALSE(directory.SelectPartner(rng, &partner));
  directory.ObserveDirect(2, 6000, 10);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(directory.SelectPartner(rng, &partner));
    EXPECT_EQ(partner.peer_id, 2u);
  }
}

TEST(PeerDirectoryTest, AlivePeersIsSortedById) {
  PeerDirectory directory(0, 1000);
  directory.ObserveDirect(9, 1, 10);
  directory.ObserveDirect(3, 2, 10);
  directory.ObserveDirect(5, 3, 10);
  directory.MarkDeparted(4, 10);
  const std::vector<PeerDirectory::Entry> alive = directory.AlivePeers();
  ASSERT_EQ(alive.size(), 3u);
  EXPECT_EQ(alive[0].peer_id, 3u);
  EXPECT_EQ(alive[1].peer_id, 5u);
  EXPECT_EQ(alive[2].peer_id, 9u);
}

}  // namespace
}  // namespace net
}  // namespace jxp
