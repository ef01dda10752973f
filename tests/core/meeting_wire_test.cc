#include "core/meeting_wire.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/jxp_peer.h"
#include "core/simulation.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "p2p/faults.h"

namespace jxp {
namespace core {
namespace {

/// A realistic graph + two overlapping fragments of >= 32 pages each (the
/// regime the wire format is designed for; tiny fragments can lose to the
/// analytic model on frame-header overhead alone).
struct TwoPeerWorld {
  graph::Graph graph;
  std::vector<graph::PageId> pages_a;
  std::vector<graph::PageId> pages_b;
};

TwoPeerWorld MakeWorld(uint64_t seed) {
  TwoPeerWorld world;
  Random rng(seed);
  world.graph = graph::BarabasiAlbert(300, 3, rng);
  for (graph::PageId p = 0; p < 180; ++p) world.pages_a.push_back(p);
  for (graph::PageId p = 120; p < 300; ++p) world.pages_b.push_back(p);
  return world;
}

JxpOptions WireOptions(MeetingWireMode mode) {
  JxpOptions options;
  options.pr_tolerance = 1e-12;
  options.pr_max_iterations = 500;
  options.wire_mode = mode;
  return options;
}

TEST(MeetingWireTest, MessageRoundTripsThroughTheCodec) {
  const TwoPeerWorld world = MakeWorld(11);
  const JxpOptions options = WireOptions(MeetingWireMode::kEstimated);
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a),
            world.graph.NumNodes(), options);
  JxpPeer b(1, graph::Subgraph::Induce(world.graph, world.pages_b),
            world.graph.NumNodes(), options);
  JxpPeer::Meet(a, b);  // Populate a's world node with real knowledge.
  ASSERT_GT(a.world_node().NumEntries(), 0u);

  const std::vector<uint8_t> bytes =
      EncodeMeetingMessage(a.fragment().Table(), a.local_scores(), a.world_node());
  const DecodedMeetingMessage decoded = DecodeMeetingMessage(bytes);
  ASSERT_TRUE(decoded.error.ok()) << decoded.error.ToString();
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());

  const wire::PageTableColumns& table = decoded.page_table;
  ASSERT_EQ(table.pages.size(), a.fragment().NumLocalPages());
  ASSERT_EQ(table.scores.size(), a.local_scores().size());
  for (size_t i = 0; i < table.scores.size(); ++i) {
    const auto local = static_cast<graph::Subgraph::LocalIndex>(i);
    EXPECT_EQ(table.pages[i], a.fragment().GlobalId(local));
    const auto expected = a.fragment().Successors(local);
    const auto got = table.View().Successors(i);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()));
    // Quantization rounds down, never up (Theorem 5.3 safety).
    EXPECT_LE(table.scores[i], a.local_scores()[i]);
    EXPECT_NEAR(table.scores[i], a.local_scores()[i],
                a.local_scores()[i] * 1e-6 + 1e-30);
  }

  EXPECT_EQ(decoded.world.NumEntries(), a.world_node().NumEntries());
  EXPECT_EQ(decoded.world.NumLinks(), a.world_node().NumLinks());
  for (size_t e = 0; e < a.world_node().NumEntries(); ++e) {
    const ExternalPageInfo info = a.world_node().Entry(e);
    const auto got = decoded.world.Find(info.page);
    ASSERT_TRUE(got.has_value()) << "world entry " << info.page;
    EXPECT_EQ(got->out_degree, info.out_degree);
    EXPECT_TRUE(std::ranges::equal(got->targets, info.targets));
    EXPECT_LE(got->score, info.score);
  }
}

/// A well-formed message from a sender hosting `sender_pages`, carrying
/// `world` as its world knowledge.
std::vector<uint8_t> CraftMessage(const graph::Graph& graph,
                                  std::vector<graph::PageId> sender_pages,
                                  const WorldNode& world) {
  const graph::Subgraph fragment =
      graph::Subgraph::Induce(graph, std::move(sender_pages));
  const std::vector<double> scores(fragment.NumLocalPages(), 1e-4);
  return EncodeMeetingMessage(fragment.Table(), scores, world);
}

/// The score invariants an applied message must keep: finite,
/// non-negative scores and a local mass of at most 1.
void ExpectScoreInvariants(const JxpPeer& peer) {
  double mass = 0;
  for (double s : peer.local_scores()) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
    mass += s;
  }
  EXPECT_LE(mass, 1.0 + 1e-12);
  EXPECT_GT(peer.world_score(), 0.0);
  EXPECT_LT(peer.world_score(), 1.0);
}

TEST(MeetingWireTest, ApplyResolvesConflictingOutDegrees) {
  // Two well-formed messages report different out-degrees for external page
  // 260. The receiver must not abort, and the larger out-degree wins.
  const TwoPeerWorld world = MakeWorld(11);
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a),
            world.graph.NumNodes(), WireOptions(MeetingWireMode::kMeasured));
  WorldNode first;
  first.Append(260, 2, 1e-4, std::vector<graph::PageId>{5, 6});
  ASSERT_TRUE(a.ApplyMeetingBytes(CraftMessage(world.graph, {250, 251}, first)).applied);
  ASSERT_EQ(a.world_node().Find(260)->out_degree, 2u);

  WorldNode second;
  second.Append(260, 7, 2e-4, std::vector<graph::PageId>{5});
  const RemoteMeetingApply applied =
      a.ApplyMeetingBytes(CraftMessage(world.graph, {250, 251}, second));
  EXPECT_TRUE(applied.applied);
  EXPECT_FALSE(applied.salvaged);
  const auto info = a.world_node().Find(260);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->out_degree, 7u);
  EXPECT_EQ(std::vector<graph::PageId>(info->targets.begin(), info->targets.end()),
            (std::vector<graph::PageId>{5, 6}));
  ExpectScoreInvariants(a);
  // The resolved state still encodes.
  EXPECT_TRUE(DecodeMeetingMessage(a.EncodeMeetingBytes()).error.ok());
}

TEST(MeetingWireTest, ApplyAcceptsPageSentAsWorldEntryAndDangling) {
  // The decoder accepts one page in both world sections; the receiver keeps
  // both records, as it would from two separate messages.
  const TwoPeerWorld world = MakeWorld(11);
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a),
            world.graph.NumNodes(), WireOptions(MeetingWireMode::kMeasured));
  WorldNode both;
  both.Append(260, 2, 1e-4, std::vector<graph::PageId>{5, 6});
  both.AppendDangling(260, 1e-4);
  const RemoteMeetingApply applied =
      a.ApplyMeetingBytes(CraftMessage(world.graph, {250, 251}, both));
  EXPECT_TRUE(applied.applied);
  EXPECT_FALSE(applied.salvaged);
  EXPECT_TRUE(a.world_node().Find(260).has_value());
  EXPECT_TRUE(a.world_node().FindDangling(260).has_value());
  ExpectScoreInvariants(a);
  EXPECT_TRUE(DecodeMeetingMessage(a.EncodeMeetingBytes()).error.ok());
}

TEST(MeetingWireTest, MeasuredMeetingMatchesEstimatedScoresClosely) {
  const TwoPeerWorld world = MakeWorld(23);
  const JxpOptions estimated = WireOptions(MeetingWireMode::kEstimated);
  const JxpOptions measured = WireOptions(MeetingWireMode::kMeasured);
  const size_t n = world.graph.NumNodes();

  JxpPeer ae(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, estimated);
  JxpPeer be(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, estimated);
  JxpPeer am(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, measured);
  JxpPeer bm(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, measured);

  for (int round = 0; round < 3; ++round) {
    JxpPeer::Meet(ae, be);
    JxpPeer::Meet(am, bm);
  }
  // The only difference is the wire's float quantization of scores, so the
  // two runs agree to float precision.
  EXPECT_NEAR(am.world_score(), ae.world_score(), 1e-5);
  for (size_t i = 0; i < ae.local_scores().size(); ++i) {
    EXPECT_NEAR(am.local_scores()[i], ae.local_scores()[i], 1e-6) << "page " << i;
  }
}

TEST(MeetingWireTest, MeasuredBytesStayBelowAnalyticEstimate) {
  const TwoPeerWorld world = MakeWorld(37);
  const JxpOptions options = WireOptions(MeetingWireMode::kMeasured);
  const size_t n = world.graph.NumNodes();
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, options);
  JxpPeer b(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, options);

  for (int round = 0; round < 3; ++round) {
    const MeetingOutcome outcome = JxpPeer::Meet(a, b);
    EXPECT_GT(outcome.bytes_sent_initiator, 0.0);
    EXPECT_GT(outcome.bytes_sent_partner, 0.0);
    // Delta + VByte + float quantization must beat the analytic 8-bytes-per
    // id model at realistic fragment sizes.
    EXPECT_LT(outcome.bytes_sent_initiator, outcome.estimated_bytes_initiator);
    EXPECT_LT(outcome.bytes_sent_partner, outcome.estimated_bytes_partner);
    EXPECT_LT(outcome.wire_bytes, outcome.estimated_wire_bytes);
    EXPECT_DOUBLE_EQ(outcome.wire_bytes,
                     outcome.bytes_sent_initiator + outcome.bytes_sent_partner);
  }
}

TEST(MeetingWireTest, EstimatedModeReportsIdenticalMeasuredAndEstimatedBytes) {
  const TwoPeerWorld world = MakeWorld(41);
  const JxpOptions options = WireOptions(MeetingWireMode::kEstimated);
  const size_t n = world.graph.NumNodes();
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, options);
  JxpPeer b(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, options);
  const MeetingOutcome outcome = JxpPeer::Meet(a, b);
  EXPECT_DOUBLE_EQ(outcome.estimated_bytes_initiator, outcome.bytes_sent_initiator);
  EXPECT_DOUBLE_EQ(outcome.estimated_bytes_partner, outcome.bytes_sent_partner);
  EXPECT_DOUBLE_EQ(outcome.estimated_wire_bytes, outcome.wire_bytes);
}

/// `sender`'s meeting blob after `fault`, as a receiving daemon gets it.
std::vector<uint8_t> FaultedBlob(const JxpPeer& sender, const p2p::BlobFault& fault) {
  std::vector<uint8_t> blob = sender.EncodeMeetingBytes();
  fault.ApplyTo(blob);
  return blob;
}

/// Scores stay a sub-distribution: non-negative, summing to 1 with the world
/// score.
void ExpectDistribution(const JxpPeer& peer) {
  double total = peer.world_score();
  for (double s : peer.local_scores()) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(MeetingWireTest, DroppedMessageSuppressesOneSide) {
  const TwoPeerWorld world = MakeWorld(53);
  const JxpOptions options = WireOptions(MeetingWireMode::kMeasured);
  const size_t n = world.graph.NumNodes();
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, options);
  JxpPeer b(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, options);

  p2p::BlobFault drop;
  drop.kind = p2p::BlobFault::Kind::kDrop;
  const std::vector<uint8_t> to_a = FaultedBlob(b, drop);
  const std::vector<uint8_t> to_b = FaultedBlob(a, p2p::BlobFault{});
  const RemoteMeetingApply applied_a = a.ApplyMeetingBytes(to_a);
  const RemoteMeetingApply applied_b = b.ApplyMeetingBytes(to_b);
  EXPECT_FALSE(applied_a.applied);
  EXPECT_TRUE(applied_b.applied);
  EXPECT_EQ(a.num_meetings(), 0u);
  EXPECT_EQ(b.num_meetings(), 1u);
  // Nothing of the partner's message was used.
  EXPECT_EQ(applied_a.bytes_consumed, 0u);
  EXPECT_EQ(applied_b.bytes_consumed, to_b.size());
}

/// Samples recorded so far in the registry histogram `name`.
uint64_t HistogramCount(const std::string& name) {
  for (const auto& histogram : obs::MetricsRegistry::Global().Snapshot().histograms) {
    if (histogram.name == name) return histogram.data.count();
  }
  return 0;
}

TEST(MeetingWireTest, DaemonCallsRecordOneCodecSamplePerMessage) {
  // The codec observables are recorded where the codec runs, so a daemon's
  // encode → apply pair records what the simulator's Meet records.
  const obs::ScopedEnable telemetry(true);
  const TwoPeerWorld world = MakeWorld(59);
  const JxpOptions options = WireOptions(MeetingWireMode::kMeasured);
  const size_t n = world.graph.NumNodes();
  JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, options);
  JxpPeer b(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, options);
  const std::vector<std::string> names = {"jxp.wire.encode_ms", "jxp.wire.decode_ms",
                                          "jxp.wire.message_bytes",
                                          "jxp.wire.compression_ratio"};
  std::vector<uint64_t> before;
  for (const std::string& name : names) before.push_back(HistogramCount(name));
  ASSERT_TRUE(a.ApplyMeetingBytes(b.EncodeMeetingBytes()).applied);
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(HistogramCount(names[i]) - before[i], 1u) << names[i];
  }
}

TEST(MeetingWireTest, BitCorruptionSalvagesPrefixOrDegeneratesToDrop) {
  const TwoPeerWorld world = MakeWorld(67);
  const JxpOptions options = WireOptions(MeetingWireMode::kMeasured);
  const size_t n = world.graph.NumNodes();

  for (const double offset : {0.0, 0.5, 0.95}) {
    JxpPeer a(0, graph::Subgraph::Induce(world.graph, world.pages_a), n, options);
    JxpPeer b(1, graph::Subgraph::Induce(world.graph, world.pages_b), n, options);
    const size_t sent = b.EncodeMeetingBytes().size();
    p2p::BlobFault flip;
    flip.kind = p2p::BlobFault::Kind::kCorrupt;
    flip.bit = static_cast<uint64_t>(offset * static_cast<double>(sent)) * 8 + 3;
    const std::vector<uint8_t> to_a = FaultedBlob(b, flip);
    const std::vector<uint8_t> to_b = FaultedBlob(a, p2p::BlobFault{});
    const RemoteMeetingApply applied_a = a.ApplyMeetingBytes(to_a);
    b.ApplyMeetingBytes(to_b);

    // The damage is detected, never applied wholesale: either the initiator
    // salvaged a decodable prefix (some of the partner's bytes were wasted)
    // or nothing usable arrived (degenerate drop).
    EXPECT_TRUE(applied_a.salvaged) << "offset " << offset;
    if (applied_a.applied) {
      EXPECT_GT(applied_a.bytes_consumed, 0u) << "offset " << offset;
      EXPECT_LT(applied_a.bytes_consumed, sent);
    } else {
      EXPECT_EQ(applied_a.bytes_consumed, 0u);
      EXPECT_EQ(a.num_meetings(), 0u);
    }
    ExpectDistribution(a);
    ExpectDistribution(b);
  }
}

TEST(MeetingWireTest, SimulationAccountsMeasuredAndEstimatedTraffic) {
  Random rng(71);
  const graph::Graph g = graph::BarabasiAlbert(240, 3, rng);
  std::vector<std::vector<graph::PageId>> fragments(4);
  for (graph::PageId p = 0; p < g.NumNodes(); ++p) {
    fragments[p % 4].push_back(p);
    fragments[(p + 1) % 4].push_back(p);  // 2x overlap.
  }

  SimulationConfig config;
  config.jxp = WireOptions(MeetingWireMode::kMeasured);
  config.seed = 5;
  config.eval_top_k = 50;
  JxpSimulation sim(g, fragments, config);
  sim.RunMeetings(20);

  const double measured = sim.network().TotalTrafficBytes();
  const double estimated = sim.total_estimated_traffic_bytes();
  EXPECT_GT(measured, 0.0);
  EXPECT_GT(estimated, 0.0);
  EXPECT_LT(measured, estimated);

  // In estimated mode the two totals coincide exactly.
  SimulationConfig est_config = config;
  est_config.jxp.wire_mode = MeetingWireMode::kEstimated;
  JxpSimulation est_sim(g, fragments, est_config);
  est_sim.RunMeetings(20);
  EXPECT_DOUBLE_EQ(est_sim.total_estimated_traffic_bytes(),
                   est_sim.network().TotalTrafficBytes());
}

TEST(MeetingWireTest, SimulationWithCorruptionFaultsStaysSafe) {
  // Four peers meeting over faulted bytes, as daemons behind a chaos proxy.
  Random rng(73);
  const graph::Graph g = graph::BarabasiAlbert(200, 3, rng);
  std::vector<std::vector<graph::PageId>> fragments(4);
  for (graph::PageId p = 0; p < g.NumNodes(); ++p) fragments[p % 4].push_back(p);
  const JxpOptions options = WireOptions(MeetingWireMode::kMeasured);
  std::vector<JxpPeer> peers;
  for (p2p::PeerId p = 0; p < fragments.size(); ++p) {
    peers.emplace_back(p, graph::Subgraph::Induce(g, fragments[p]), g.NumNodes(), options);
  }

  p2p::FaultPlan plan;
  plan.corruption_probability = 0.5;
  plan.message_drop_probability = 0.1;
  plan.seed = 9;
  Random faults(plan.seed);
  Random schedule(9);
  size_t salvaged = 0;
  for (int m = 0; m < 40; ++m) {
    const size_t a = schedule.NextBounded(peers.size());
    size_t b = schedule.NextBounded(peers.size() - 1);
    if (b >= a) ++b;
    std::vector<uint8_t> to_b = peers[a].EncodeMeetingBytes();
    std::vector<uint8_t> to_a = peers[b].EncodeMeetingBytes();
    plan.Draw(to_b.size(), faults).ApplyTo(to_b);
    plan.Draw(to_a.size(), faults).ApplyTo(to_a);
    salvaged += peers[a].ApplyMeetingBytes(to_a).salvaged;
    salvaged += peers[b].ApplyMeetingBytes(to_b).salvaged;
  }

  EXPECT_GT(salvaged, 0u);
  for (const JxpPeer& peer : peers) ExpectDistribution(peer);
}

}  // namespace
}  // namespace core
}  // namespace jxp
