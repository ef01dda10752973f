#include "net/peer_daemon.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include <gtest/gtest.h>

#include "core/jxp_peer.h"
#include "core/state_io.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "net/chaos_proxy.h"
#include "net/control_client.h"
#include "net/event_loop.h"

namespace jxp {
namespace net {
namespace {

using core::JxpOptions;
using core::JxpPeer;
using core::MeetingWireMode;

JxpOptions NetOptions() {
  JxpOptions options;
  // kMeasured is the mode the networked runtime mirrors: an in-process
  // kMeasured JxpPeer::Meet and the daemon's encode-then-apply exchange
  // must be bit-identical.
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

  /// Stops the loop and joins; after this, daemon state is safe to inspect
  /// from the test thread.
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

/// Lets the daemon threads drain in-flight events (EOF deliveries, blob
/// salvage) that are not ordered with the control round trip.
void Settle() { std::this_thread::sleep_for(std::chrono::milliseconds(100)); }

/// Asserts that the scores a daemon reports over the wire are bit-identical
/// to the oracle peer's state.
void ExpectScoresMatch(const ScoresReplyMessage& got, const JxpPeer& oracle) {
  const graph::Subgraph& fragment = oracle.fragment();
  const std::vector<double>& scores = oracle.local_scores();
  ASSERT_EQ(got.entries.size(), scores.size());
  std::unordered_map<uint32_t, double> by_page;
  for (const ScoreEntry& entry : got.entries) by_page[entry.page] = entry.score;
  for (size_t i = 0; i < scores.size(); ++i) {
    const uint32_t page = fragment.GlobalId(static_cast<graph::Subgraph::LocalIndex>(i));
    ASSERT_TRUE(by_page.count(page)) << "missing page " << page;
    EXPECT_EQ(by_page[page], scores[i]) << "score of page " << page;
  }
  EXPECT_EQ(got.world_score, oracle.world_score());
}

TEST(PeerDaemonTest, TwoDaemonMeetingMatchesInProcessOracle) {
  const graph::Graph g = SmallGraph();

  // Oracle: the same two peers meeting in-process (kMeasured mode).
  JxpPeer oracle_a = MakePeerA(g);
  JxpPeer oracle_b = MakePeerB(g);
  JxpPeer::Meet(oracle_a, oracle_b);
  JxpPeer::Meet(oracle_b, oracle_a);

  Harness a(MakePeerA(g), {});
  Harness b(MakePeerB(g), {});

  ControlClient control_a, control_b;
  ASSERT_TRUE(control_a.Connect(a.daemon.bound_port()).ok());
  ASSERT_TRUE(control_b.Connect(b.daemon.bound_port()).ok());

  MeetResultMessage result;
  ASSERT_TRUE(control_a.Meet(1, b.daemon.bound_port(), &result).ok());
  EXPECT_TRUE(result.applied);
  EXPECT_FALSE(result.salvaged);
  EXPECT_FALSE(result.declined);
  ASSERT_TRUE(control_b.Meet(0, a.daemon.bound_port(), &result).ok());
  EXPECT_TRUE(result.applied);

  ScoresReplyMessage scores_a, scores_b;
  ASSERT_TRUE(control_a.GetScores(&scores_a).ok());
  ASSERT_TRUE(control_b.GetScores(&scores_b).ok());
  ExpectScoresMatch(scores_a, oracle_a);
  ExpectScoresMatch(scores_b, oracle_b);

  NetStatsReplyMessage status;
  ASSERT_TRUE(control_a.GetNetStats(&status).ok());
  EXPECT_EQ(status.peer_id, 0u);
  EXPECT_EQ(status.num_meetings, 2u);
  EXPECT_EQ(status.local_pages, 3u);
  EXPECT_EQ(status.world_entries, oracle_a.world_node().NumEntries());
  EXPECT_EQ(status.directory_size, 1u) << "A learned B from their meetings";
  EXPECT_EQ(status.quiesced, 0u);

  a.StopAndJoin();
  b.StopAndJoin();
  EXPECT_EQ(a.daemon.stats().meetings_initiated, 1u);
  EXPECT_EQ(a.daemon.stats().meetings_accepted, 1u);
  EXPECT_EQ(b.daemon.stats().meetings_accepted, 1u);
  EXPECT_EQ(a.daemon.stats().truncations_detected, 0u);
  EXPECT_EQ(a.daemon.stats().corruptions_detected, 0u);
  EXPECT_EQ(a.daemon.stats().wasted_bytes, 0u);
  EXPECT_GT(a.daemon.stats().bytes_received, 0u);
  // The responder learned the initiator's address from its Hello.
  const PeerDirectory::Entry* found = b.daemon.directory().Find(0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->port, a.daemon.bound_port());
}

TEST(PeerDaemonTest, ShutdownFdTriggersCheckpointAndRestartResumesBitIdentical) {
  const graph::Graph g = SmallGraph();
  const std::string state_path = ::testing::TempDir() + "/net_daemon_a.jxp";
  ::remove(state_path.c_str());

  // Oracle: two meetings in-process.
  JxpPeer oracle_a = MakePeerA(g);
  JxpPeer oracle_b = MakePeerB(g);
  JxpPeer::Meet(oracle_a, oracle_b);
  JxpPeer::Meet(oracle_a, oracle_b);

  int shutdown_pipe[2];
  ASSERT_EQ(::pipe(shutdown_pipe), 0);

  Harness b(MakePeerB(g), {});
  {
    PeerDaemonOptions options;
    options.state_path = state_path;
    options.shutdown_fd = shutdown_pipe[0];
    Harness a(MakePeerA(g), options);

    ControlClient control;
    ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());
    MeetResultMessage result;
    ASSERT_TRUE(control.Meet(1, b.daemon.bound_port(), &result).ok());
    ASSERT_TRUE(result.applied);

    // Graceful shutdown: one byte on the shutdown fd (the SIGTERM handler's
    // self-pipe in the daemon binary) quiesces, checkpoints, and stops the
    // loop — the thread exits on its own, no Stop() needed.
    const uint8_t byte = 1;
    ASSERT_EQ(::write(shutdown_pipe[1], &byte, 1), 1);
    a.thread.join();
    EXPECT_TRUE(a.daemon.quiesced());
    EXPECT_EQ(a.daemon.stats().checkpoints, 1u);
  }

  // Restart from the checkpoint; the resumed daemon must continue exactly
  // where the first instance left off.
  StatusOr<JxpPeer> restored = core::LoadPeerState(state_path, NetOptions());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Harness a2(std::move(restored.value()), {});

  ControlClient control;
  ASSERT_TRUE(control.Connect(a2.daemon.bound_port()).ok());
  MeetResultMessage result;
  ASSERT_TRUE(control.Meet(1, b.daemon.bound_port(), &result).ok());
  ASSERT_TRUE(result.applied);

  ScoresReplyMessage scores_a, scores_b;
  ASSERT_TRUE(control.GetScores(&scores_a).ok());
  ControlClient control_b;
  ASSERT_TRUE(control_b.Connect(b.daemon.bound_port()).ok());
  ASSERT_TRUE(control_b.GetScores(&scores_b).ok());
  ExpectScoresMatch(scores_a, oracle_a);
  ExpectScoresMatch(scores_b, oracle_b);

  ::close(shutdown_pipe[0]);
  ::close(shutdown_pipe[1]);
  ::remove(state_path.c_str());
}

TEST(PeerDaemonTest, QuiescedDaemonDeclinesMeetingsAndCountsWaste) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});
  Harness b(MakePeerB(g), {});

  ControlClient control_a, control_b;
  ASSERT_TRUE(control_a.Connect(a.daemon.bound_port()).ok());
  ASSERT_TRUE(control_b.Connect(b.daemon.bound_port()).ok());
  // Drain quiesces a daemon even without a scheduler.
  ASSERT_TRUE(control_b.Drain().ok());

  MeetResultMessage result;
  ASSERT_TRUE(control_a.Meet(1, b.daemon.bound_port(), &result).ok());
  EXPECT_TRUE(result.declined);
  EXPECT_FALSE(result.applied);

  NetStatsReplyMessage status;
  ASSERT_TRUE(control_b.GetNetStats(&status).ok());
  EXPECT_EQ(status.quiesced, 1u);
  EXPECT_EQ(status.num_meetings, 0u);
  EXPECT_EQ(status.meetings_declined, 1u);

  a.StopAndJoin();
  b.StopAndJoin();
  EXPECT_EQ(b.daemon.stats().meetings_declined, 1u);
  // The initiator's whole blob was received and discarded: pure waste.
  EXPECT_GT(b.daemon.stats().wasted_bytes, 0u);
  EXPECT_EQ(a.daemon.peer().num_meetings(), 0u);
}

TEST(PeerDaemonTest, OversizedMeetingOfferClosesTheConnection) {
  const graph::Graph g = SmallGraph();
  Harness b(MakePeerB(g), {});

  // A partner announcing a blob past the frame payload cap is a protocol
  // error: the responder must close instead of buffering for it.
  UniqueFd fd;
  ASSERT_TRUE(ConnectLoopback(b.daemon.bound_port(), &fd).ok());
  MeetingHeader offer;
  offer.sender_id = 0;
  offer.payload_bytes = static_cast<uint32_t>(wire::kMaxFramePayloadBytes + 1);
  std::vector<uint8_t> frame;
  AppendMeetingHeader(NetMessageType::kMeetingOffer, offer, frame);
  ASSERT_TRUE(WriteAll(fd.get(), frame).ok());

  SetIoTimeouts(fd.get(), 5000);
  uint8_t byte = 0;
  EXPECT_EQ(::read(fd.get(), &byte, 1), 0) << "the daemon must close the connection";

  b.StopAndJoin();
  EXPECT_EQ(b.daemon.stats().protocol_errors, 1u);
  EXPECT_EQ(b.daemon.stats().meetings_accepted, 0u);
  EXPECT_EQ(b.daemon.peer().num_meetings(), 0u);
}

TEST(PeerDaemonTest, GossipExchangeSpreadsThirdPartyAndGoodbyeTombstones) {
  const graph::Graph g = SmallGraph();
  Harness b(MakePeerB(g), {});

  // Daemon A never runs its loop: GossipOnce dials B synchronously from
  // this thread, which keeps A's state single-threaded in the test.
  PeerDaemonOptions options_a;
  options_a.seed_peers.push_back({1, b.daemon.bound_port(), 0, false});
  EventLoop loop_a;
  PeerDaemon a(std::make_unique<JxpPeer>(MakePeerA(g)), options_a);
  ASSERT_TRUE(a.Start(&loop_a).ok());

  // Teach B about a third peer (and a tombstoned one) directly.
  b.daemon.directory().ObserveDirect(7, 7777, 0);
  b.daemon.directory().MarkDeparted(8, 0);

  a.GossipOnce();
  // A learned both rumors: the live third party and the tombstone.
  const PeerDirectory::Entry* third = a.directory().Find(7);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->port, 7777);
  EXPECT_FALSE(third->departed);
  const PeerDirectory::Entry* tombstone = a.directory().Find(8);
  ASSERT_NE(tombstone, nullptr);
  EXPECT_TRUE(tombstone->departed);
  EXPECT_EQ(a.stats().gossip_exchanges, 1u);

  // A's goodbye (BeginShutdown) tombstones it in B's directory.
  a.BeginShutdown();
  Settle();
  b.StopAndJoin();
  const PeerDirectory::Entry* a_entry = b.daemon.directory().Find(0);
  ASSERT_NE(a_entry, nullptr);
  EXPECT_TRUE(a_entry->departed);
}

TEST(PeerDaemonTest, ChaosCorruptionIsDetectedOnBothBlobsAndSalvaged) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});
  Harness b(MakePeerB(g), {});

  ChaosProxyOptions proxy_options;
  proxy_options.target_port = b.daemon.bound_port();
  proxy_options.plan.corruption_probability = 1.0;
  proxy_options.plan.seed = 99;
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());
  MeetResultMessage result;
  ASSERT_TRUE(control.Meet(1, proxy.bound_port(), &result).ok());
  // The reply blob arrived complete but with one bit flipped somewhere: the
  // frame checksums catch it and the decode degrades to a salvage.
  EXPECT_TRUE(result.salvaged);

  Settle();
  proxy.Stop();
  a.StopAndJoin();
  b.StopAndJoin();

  const ChaosProxyStats injected = proxy.stats();
  EXPECT_EQ(injected.blobs_corrupted, 2u);  // Offer and reply.
  EXPECT_EQ(injected.blobs_dropped, 0u);
  EXPECT_EQ(injected.blobs_truncated, 0u);
  // Wasted-traffic accounting matches the injector exactly: each flipped
  // blob is detected as a corruption by exactly one receiver.
  EXPECT_EQ(a.daemon.stats().corruptions_detected +
                b.daemon.stats().corruptions_detected,
            injected.blobs_corrupted);
  EXPECT_EQ(a.daemon.stats().truncations_detected, 0u);
  EXPECT_EQ(b.daemon.stats().truncations_detected, 0u);
  // The initiator's salvaged reply left bytes undecoded.
  EXPECT_GT(a.daemon.stats().wasted_bytes, 0u);
}

TEST(PeerDaemonTest, ChaosDropIsDetectedAsTruncationByResponder) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});
  Harness b(MakePeerB(g), {});

  ChaosProxyOptions proxy_options;
  proxy_options.target_port = b.daemon.bound_port();
  proxy_options.plan.message_drop_probability = 1.0;
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());
  MeetResultMessage result;
  ASSERT_TRUE(control.Meet(1, proxy.bound_port(), &result).ok());
  EXPECT_FALSE(result.applied);  // No reply ever came back.

  Settle();
  proxy.Stop();
  a.StopAndJoin();
  b.StopAndJoin();

  const ChaosProxyStats injected = proxy.stats();
  EXPECT_EQ(injected.blobs_dropped, 1u);
  // The responder saw the offer frame announce N bytes and then EOF after 0
  // of them: exactly one truncation detection per dropped blob.
  EXPECT_EQ(b.daemon.stats().truncations_detected, 1u);
  EXPECT_EQ(b.daemon.stats().meetings_accepted, 0u);
  EXPECT_EQ(a.daemon.stats().meeting_failures, 1u);
  // Peer states are untouched by the failed meeting.
  EXPECT_EQ(a.daemon.peer().num_meetings(), 0u);
  EXPECT_EQ(b.daemon.peer().num_meetings(), 0u);
}

TEST(PeerDaemonTest, ChaosTruncationSalvagesPrefixWithoutCrashing) {
  const graph::Graph g = SmallGraph();
  Harness a(MakePeerA(g), {});
  Harness b(MakePeerB(g), {});

  ChaosProxyOptions proxy_options;
  proxy_options.target_port = b.daemon.bound_port();
  proxy_options.plan.truncation_probability = 1.0;
  proxy_options.plan.truncation_keep_fraction = 0.5;
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  ControlClient control;
  ASSERT_TRUE(control.Connect(a.daemon.bound_port()).ok());
  MeetResultMessage result;
  ASSERT_TRUE(control.Meet(1, proxy.bound_port(), &result).ok());

  Settle();
  proxy.Stop();
  a.StopAndJoin();
  b.StopAndJoin();

  const ChaosProxyStats injected = proxy.stats();
  EXPECT_EQ(injected.blobs_truncated, 1u);
  EXPECT_EQ(b.daemon.stats().truncations_detected, 1u);
  // Theorem 5.3 safety net: whatever prefix was salvaged, scores remain
  // valid probability mass (never an overestimate of 1).
  double total = b.daemon.peer().world_score();
  for (const double score : b.daemon.peer().local_scores()) total += score;
  EXPECT_LE(total, 1.0 + 1e-9);
}

}  // namespace
}  // namespace net
}  // namespace jxp
