#include "p2p/network.h"

#include <gtest/gtest.h>

#include "p2p/churn.h"

namespace jxp {
namespace p2p {
namespace {

TEST(NetworkTest, AddAndQueryPeers) {
  Network network;
  EXPECT_EQ(network.AddPeer(), 0u);
  EXPECT_EQ(network.AddPeer(), 1u);
  EXPECT_EQ(network.NumPeers(), 2u);
  EXPECT_EQ(network.NumAlive(), 2u);
  EXPECT_TRUE(network.IsAlive(0));
}

TEST(NetworkTest, LeaveAndRejoin) {
  Network network;
  network.AddPeer();
  network.AddPeer();
  network.AddPeer();
  network.Leave(1);
  EXPECT_FALSE(network.IsAlive(1));
  EXPECT_EQ(network.NumAlive(), 2u);
  network.Rejoin(1);
  EXPECT_TRUE(network.IsAlive(1));
  EXPECT_EQ(network.NumAlive(), 3u);
}

TEST(NetworkTest, RandomAlivePeerRespectsExclusionAndLiveness) {
  Network network;
  for (int i = 0; i < 5; ++i) network.AddPeer();
  network.Leave(2);
  Random rng(1);
  for (int i = 0; i < 200; ++i) {
    const PeerId p = network.RandomAlivePeer(rng, 0);
    EXPECT_NE(p, 0u);
    EXPECT_NE(p, 2u);
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

TEST(ChurnTest, NoChurnWithZeroProbabilities) {
  Network network;
  for (int i = 0; i < 4; ++i) network.AddPeer();
  ChurnModel churn(ChurnModel::Options{}, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(churn.Step(network).type, ChurnEventType::kNone);
  }
  EXPECT_EQ(network.NumAlive(), 4u);
}

TEST(ChurnTest, RespectsMinAliveFloor) {
  Network network;
  for (int i = 0; i < 5; ++i) network.AddPeer();
  ChurnModel::Options options;
  options.leave_probability = 1.0;
  options.min_alive = 3;
  ChurnModel churn(options, 2);
  for (int i = 0; i < 50; ++i) churn.Step(network);
  EXPECT_EQ(network.NumAlive(), 3u);
}

TEST(ChurnTest, JoinsBringPeersBack) {
  Network network;
  for (int i = 0; i < 6; ++i) network.AddPeer();
  network.Leave(0);
  network.Leave(1);
  ChurnModel::Options options;
  options.join_probability = 1.0;
  ChurnModel churn(options, 3);
  EXPECT_EQ(churn.Step(network).type, ChurnEventType::kJoin);
  EXPECT_EQ(churn.Step(network).type, ChurnEventType::kJoin);
  EXPECT_EQ(churn.Step(network).type, ChurnEventType::kNone);
  EXPECT_EQ(network.NumAlive(), 6u);
}

TEST(ChurnTest, MixedChurnKeepsNetworkWithinBounds) {
  Network network;
  for (int i = 0; i < 10; ++i) network.AddPeer();
  ChurnModel::Options options;
  options.leave_probability = 0.3;
  options.join_probability = 0.3;
  options.min_alive = 4;
  ChurnModel churn(options, 4);
  for (int i = 0; i < 500; ++i) {
    churn.Step(network);
    EXPECT_GE(network.NumAlive(), 4u);
    EXPECT_LE(network.NumAlive(), 10u);
  }
}

}  // namespace
}  // namespace p2p
}  // namespace jxp
