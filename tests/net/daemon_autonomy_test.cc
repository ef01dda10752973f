#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "core/jxp_peer.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "net/control_client.h"
#include "net/event_loop.h"
#include "net/peer_daemon.h"

namespace jxp {
namespace net {
namespace {

using core::JxpOptions;
using core::JxpPeer;
using core::MeetingWireMode;

JxpOptions NetOptions() {
  JxpOptions options;
  options.wire_mode = MeetingWireMode::kMeasured;
  return options;
}

/// 0 -> {1,2}, 1 -> {2}, 2 -> {0}, 3 -> {2}, 4 -> {0}, 5 dangling.
graph::Graph SmallGraph() {
  graph::GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(3, 2);
  builder.AddEdge(4, 0);
  return builder.Build();
}

JxpPeer MakePeerA(const graph::Graph& g) {
  return JxpPeer(0, graph::Subgraph::Induce(g, {0, 1, 2}), g.NumNodes(), NetOptions());
}

JxpPeer MakePeerB(const graph::Graph& g) {
  return JxpPeer(1, graph::Subgraph::Induce(g, {2, 3, 4, 5}), g.NumNodes(),
                 NetOptions());
}

/// One daemon + its event loop running on a background thread.
struct Harness {
  Harness(JxpPeer peer, PeerDaemonOptions options)
      : daemon(std::make_unique<JxpPeer>(std::move(peer)), std::move(options)) {
    const Status status = daemon.Start(&loop);
    EXPECT_TRUE(status.ok()) << status.ToString();
    thread = std::thread([this] { loop.Run(); });
  }
  ~Harness() { StopAndJoin(); }

  void StopAndJoin() {
    if (thread.joinable()) {
      loop.Stop();
      thread.join();
    }
  }

  EventLoop loop;
  PeerDaemon daemon;
  std::thread thread;
};

void Settle() { std::this_thread::sleep_for(std::chrono::milliseconds(100)); }

/// Autonomous daemon options: a fast scheduler, which waits for the control
/// plane's kStartRequest.
PeerDaemonOptions AutonomousOptions() {
  PeerDaemonOptions options;
  options.scheduler.enabled = true;
  options.scheduler.interval_ms = 10;
  options.scheduler.jitter_ms = 5;
  options.io_timeout_ms = 2000;
  return options;
}

GossipEntry SeedFor(uint32_t peer_id, uint16_t port) {
  GossipEntry entry;
  entry.peer_id = peer_id;
  entry.port = port;
  return entry;
}

TEST(DaemonAutonomyTest, SchedulerControlLifecycle) {
  const graph::Graph g = SmallGraph();
  Harness b(MakePeerB(g), {});  // Replay-mode partner: accepts inbound only.

  PeerDaemonOptions options = AutonomousOptions();
  options.seed_peers = {SeedFor(1, b.daemon.bound_port())};
  Harness a(MakePeerA(g), options);

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());

  // The scheduler sits idle until commanded.
  NetStatsReplyMessage stats;
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.scheduler_state, static_cast<uint8_t>(SchedulerState::kIdle));
  EXPECT_EQ(stats.meetings_initiated, 0u);

  ASSERT_TRUE(control.StartScheduler().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.scheduler_state, static_cast<uint8_t>(SchedulerState::kRunning));
  EXPECT_GE(stats.sched_meetings_applied, 2u);
  EXPECT_EQ(stats.meetings_initiated, stats.sched_meetings_started);
  // One pooled dial carries every meeting: reuse, not dial-per-meeting.
  EXPECT_EQ(stats.dials, 1u);
  EXPECT_EQ(stats.dial_failures, 0u);
  EXPECT_EQ(stats.pool_reuses, stats.meetings_initiated - 1);
  EXPECT_EQ(stats.pool_open_connections, 1u);
  EXPECT_EQ(stats.quiesced, 0u);

  // A second start is a no-op on a running scheduler.
  ASSERT_TRUE(control.StartScheduler().ok());
  const uint64_t started_before = stats.sched_meetings_started;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.scheduler_state, static_cast<uint8_t>(SchedulerState::kRunning));
  EXPECT_GT(stats.sched_meetings_started, started_before);

  ASSERT_TRUE(control.Drain().ok());
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.scheduler_state, static_cast<uint8_t>(SchedulerState::kDrained));
  EXPECT_EQ(stats.pool_open_connections, 0u) << "drain closes the pool";
  EXPECT_EQ(stats.quiesced, 1u);
  const uint64_t started_at_drain = stats.sched_meetings_started;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.sched_meetings_started, started_at_drain)
      << "a drained scheduler must not meet";

  // Drained is terminal, and the daemon is quiesced: restart is refused and
  // inbound meetings decline.
  EXPECT_FALSE(control.StartScheduler().ok());
  ControlClient control_b;
  ASSERT_TRUE(control_b.Connect(b.daemon.bound_port()).ok());
  MeetResultMessage result;
  ASSERT_TRUE(control_b.Meet(0, a.daemon.bound_port(), &result).ok());
  EXPECT_TRUE(result.declined);
  EXPECT_FALSE(result.applied);

  a.StopAndJoin();
  b.StopAndJoin();
}

TEST(DaemonAutonomyTest, SchedulerControlRejectedWhenAutonomousModeOff) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());
  EXPECT_FALSE(control.StartScheduler().ok());
  // Drain still succeeds: it quiesces the daemon and closes the pool even
  // without a scheduler.
  EXPECT_TRUE(control.Drain().ok());

  NetStatsReplyMessage stats;
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.scheduler_state, static_cast<uint8_t>(SchedulerState::kIdle));
  EXPECT_EQ(stats.sched_ticks, 0u);

  a.StopAndJoin();
}

TEST(DaemonAutonomyTest, CommandedMeetingsReuseThePooledConnection) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});
  Harness b(MakePeerB(g), {});

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());

  MeetResultMessage result;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(control.Meet(1, b.daemon.bound_port(), &result).ok());
    EXPECT_TRUE(result.applied);
  }

  NetStatsReplyMessage stats;
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.meetings_initiated, 3u);
  EXPECT_EQ(stats.dials, 1u) << "replay meetings must share one pooled connection";
  EXPECT_EQ(stats.pool_reuses, 2u);
  EXPECT_EQ(stats.dial_failures, 0u);
  EXPECT_EQ(stats.pool_open_connections, 1u);

  a.StopAndJoin();
  b.StopAndJoin();
}

// The teardown-accounting contract (docs/METRICS.md): a partner restarting
// between meetings kills the pooled connection, and that must surface as
// pool half-open + redial — never as a spurious dial_failure.
TEST(DaemonAutonomyTest, PartnerRestartIsHalfOpenNotDialFailure) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});
  auto b = std::make_unique<Harness>(MakePeerB(g), PeerDaemonOptions{});
  const uint16_t b_port = b->daemon.bound_port();

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());

  MeetResultMessage result;
  ASSERT_TRUE(control.Meet(1, b_port, &result).ok());
  EXPECT_TRUE(result.applied);

  // Tear the partner down completely; its side of the pooled connection
  // closes. Then bring a fresh daemon up on the same port (SO_REUSEADDR).
  b.reset();
  Settle();
  PeerDaemonOptions reborn;
  reborn.listen_port = b_port;
  auto b2 = std::make_unique<Harness>(MakePeerB(g), reborn);
  ASSERT_EQ(b2->daemon.bound_port(), b_port);

  ASSERT_TRUE(control.Meet(1, b_port, &result).ok());
  EXPECT_TRUE(result.applied);

  NetStatsReplyMessage stats;
  ASSERT_TRUE(control.GetNetStats(&stats).ok());
  EXPECT_EQ(stats.pool_half_open, 1u);
  EXPECT_EQ(stats.pool_redials, 1u);
  EXPECT_EQ(stats.dial_failures, 0u)
      << "a dead pooled connection is lifecycle, not a failed connect";
  EXPECT_EQ(stats.dials, 2u);  // The original dial + the transparent redial.
  EXPECT_EQ(stats.meetings_initiated, 2u);
  EXPECT_EQ(stats.meeting_failures, 0u);

  a.StopAndJoin();
  b2->StopAndJoin();
}

}  // namespace
}  // namespace net
}  // namespace jxp
