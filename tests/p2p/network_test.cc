#include "p2p/network.h"

#include <gtest/gtest.h>

namespace jxp {
namespace p2p {
namespace {

TEST(NetworkTest, AddAndQueryPeers) {
  Network network;
  EXPECT_EQ(network.AddPeer(), 0u);
  EXPECT_EQ(network.AddPeer(), 1u);
  EXPECT_EQ(network.NumPeers(), 2u);
}

TEST(NetworkTest, RandomPeerRespectsExclusion) {
  Network network;
  for (int i = 0; i < 5; ++i) network.AddPeer();
  Random rng(1);
  for (int i = 0; i < 200; ++i) {
    const PeerId p = network.RandomPeer(rng, 0);
    EXPECT_NE(p, 0u);
    EXPECT_LT(p, 5u);
  }
}

TEST(NetworkTest, TrafficAccounting) {
  Network network;
  network.AddPeer();
  network.AddPeer();
  network.RecordMeetingTraffic(0, 100);
  network.RecordMeetingTraffic(0, 250);
  network.RecordMeetingTraffic(1, 50);
  EXPECT_EQ(network.TrafficOf(0).bytes_per_meeting.size(), 2u);
  EXPECT_DOUBLE_EQ(network.TrafficOf(0).bytes_per_meeting[1], 250);
  EXPECT_DOUBLE_EQ(network.TrafficOf(0).total_bytes, 350);
  EXPECT_DOUBLE_EQ(network.TotalTrafficBytes(), 400);
}

}  // namespace
}  // namespace p2p
}  // namespace jxp
