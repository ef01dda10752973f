#include "core/simulation.h"

#include <iomanip>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "crawler/partitioner.h"
#include "graph/generators.h"

namespace jxp {
namespace core {
namespace {

/// Small categorized web graph + crawl-based fragments, the paper's setup in
/// miniature.
struct SimFixture {
  SimFixture() {
    Random rng(77);
    graph::WebGraphParams params;
    params.num_nodes = 400;
    params.num_categories = 4;
    params.mean_out_degree = 5;
    collection = GenerateWebGraph(params, rng);
    crawler::PartitionOptions partition;
    partition.peers_per_category = 2;
    partition.crawler.max_pages = 90;
    fragments = CrawlBasedPartition(collection, partition, rng);
  }

  graph::CategorizedGraph collection;
  std::vector<std::vector<graph::PageId>> fragments;
};

TEST(JxpSimulationTest, ErrorDecreasesWithMeetings) {
  SimFixture fx;
  SimulationConfig config;
  config.seed = 5;
  config.eval_top_k = 50;
  JxpSimulation sim(fx.collection.graph, fx.fragments, config);

  const AccuracyPoint initial = sim.Evaluate();
  sim.RunMeetings(200);
  const AccuracyPoint later = sim.Evaluate();
  EXPECT_EQ(sim.meetings_done(), 200u);
  EXPECT_LT(later.linear_error, initial.linear_error);
  sim.RunMeetings(600);
  const AccuracyPoint final_point = sim.Evaluate();
  EXPECT_LT(final_point.footrule, 0.1);
  EXPECT_LT(final_point.linear_error, initial.linear_error / 4);
}

TEST(JxpSimulationTest, DeterministicInSeed) {
  SimFixture fx;
  SimulationConfig random;
  random.seed = 9;
  random.eval_top_k = 30;
  SimulationConfig pre_meetings = random;
  pre_meetings.strategy = SelectionStrategy::kPreMeetings;
  for (const SimulationConfig& config : {random, pre_meetings}) {
    JxpSimulation a(fx.collection.graph, fx.fragments, config);
    JxpSimulation b(fx.collection.graph, fx.fragments, config);
    a.RunMeetings(50);
    b.RunMeetings(50);
    EXPECT_DOUBLE_EQ(a.Evaluate().linear_error, b.Evaluate().linear_error);
    EXPECT_DOUBLE_EQ(a.network().TotalTrafficBytes(), b.network().TotalTrafficBytes());
    for (size_t p = 0; p < a.peers().size(); ++p) {
      EXPECT_EQ(a.peers()[p].world_score(), b.peers()[p].world_score()) << "peer " << p;
    }
  }
}

TEST(JxpSimulationTest, RecordsTrafficForBothParticipants) {
  SimFixture fx;
  SimulationConfig config;
  config.seed = 3;
  JxpSimulation sim(fx.collection.graph, fx.fragments, config);
  sim.RunMeetings(20);
  size_t meetings_recorded = 0;
  for (p2p::PeerId p = 0; p < sim.network().NumPeers(); ++p) {
    meetings_recorded += sim.network().TrafficOf(p).bytes_per_meeting.size();
  }
  EXPECT_EQ(meetings_recorded, 40u);  // Two participants per meeting.
  EXPECT_GT(sim.network().TotalTrafficBytes(), 0.0);
}

TEST(JxpSimulationTest, PreMeetingStrategyRuns) {
  SimFixture fx;
  SimulationConfig config;
  config.seed = 13;
  config.strategy = SelectionStrategy::kPreMeetings;
  config.eval_top_k = 50;
  JxpSimulation sim(fx.collection.graph, fx.fragments, config);
  sim.RunMeetings(400);
  EXPECT_LT(sim.Evaluate().footrule, 0.3);
}

TEST(JxpSimulationTest, GlobalSizeEstimateOverride) {
  SimFixture fx;
  SimulationConfig config;
  config.seed = 5;
  config.global_size_estimate = 800;  // 2x the truth.
  JxpSimulation sim(fx.collection.graph, fx.fragments, config);
  EXPECT_EQ(sim.peers()[0].global_size(), 800u);
  sim.RunMeetings(100);  // Still runs and improves.
  EXPECT_GT(sim.Evaluate().footrule, 0.0);
}

TEST(JxpSimulationTest, ReplaceFragmentIntegration) {
  SimFixture fx;
  SimulationConfig config;
  config.seed = 31;
  config.strategy = SelectionStrategy::kPreMeetings;
  JxpSimulation sim(fx.collection.graph, fx.fragments, config);
  sim.RunMeetings(100);
  // Peer 0 re-crawls: new random fragment.
  std::vector<graph::PageId> pages;
  for (graph::PageId p = 0; p < 120; ++p) pages.push_back(p);
  sim.ReplaceFragment(0, pages);
  EXPECT_EQ(sim.peers()[0].fragment().NumLocalPages(), 120u);
  sim.RunMeetings(100);  // Keeps running after the change.
  EXPECT_GT(sim.meetings_done(), 0u);
}


/// Streams the bytes of `column` into an FNV-1a state.
template <typename T>
uint64_t HashColumn(uint64_t h, const std::vector<T>& column) {
  return Fnv1aUpdate(h, reinterpret_cast<const unsigned char*>(column.data()),
                     column.size() * sizeof(T));
}

struct FrozenMode {
  SelectionStrategy strategy;
  MergeMode merge;
  CombineMode combine;
  MeetingWireMode wire;
  uint64_t digest;
};

TEST(SimulationTest, EveryMeetingModeIsFrozen) {
  // One pinned digest per merge x combine x wire mode, plus one
  // pre-meetings run. Each run holds meetings before and after one re-crawl,
  // then hashes every peer's scores and world node plus the traffic totals,
  // so any change to what a meeting computes under any mode, or to the
  // partners the pre-meetings selector picks, moves a digest.
  constexpr SelectionStrategy kRand = SelectionStrategy::kRandom;
  constexpr SelectionStrategy kPre = SelectionStrategy::kPreMeetings;
  constexpr MergeMode kLight = MergeMode::kLightWeight;
  constexpr MergeMode kFull = MergeMode::kFullMerge;
  constexpr CombineMode kMax = CombineMode::kTakeMax;
  constexpr CombineMode kAvg = CombineMode::kAverage;
  constexpr MeetingWireMode kEst = MeetingWireMode::kEstimated;
  constexpr MeetingWireMode kMeas = MeetingWireMode::kMeasured;
  const FrozenMode modes[] = {
      {kRand, kLight, kMax, kEst, 0xb840d05fc4f8162eULL},
      {kRand, kLight, kMax, kMeas, 0xf4d239627b5510baULL},
      {kRand, kLight, kAvg, kEst, 0xa47ec9339847f93dULL},
      {kRand, kLight, kAvg, kMeas, 0x0d1a7570ace41b2eULL},
      {kRand, kFull, kMax, kEst, 0xa7f48a79ad309513ULL},
      {kRand, kFull, kMax, kMeas, 0x8921c4dcdaa4fb00ULL},
      {kRand, kFull, kAvg, kEst, 0x6b44de9cf3091c79ULL},
      {kRand, kFull, kAvg, kMeas, 0x9c8b85b41e24545cULL},
      {kPre, kLight, kMax, kEst, 0x806d94b7e822136cULL},
  };
  SimFixture fx;
  // Peer 0's re-crawl keeps two thirds of its pages and picks up some of
  // peer 1's, so the fold of dropped pages runs too.
  std::vector<graph::PageId> recrawl(fx.fragments[0].begin(),
                                     fx.fragments[0].begin() + fx.fragments[0].size() * 2 / 3);
  recrawl.insert(recrawl.end(), fx.fragments[1].begin(), fx.fragments[1].begin() + 10);
  for (size_t m = 0; m < std::size(modes); ++m) {
    const FrozenMode& mode = modes[m];
    SimulationConfig config;
    config.seed = 41;
    config.eval_top_k = 20;
    config.strategy = mode.strategy;
    config.jxp.merge_mode = mode.merge;
    config.jxp.combine_mode = mode.combine;
    config.jxp.wire_mode = mode.wire;
    JxpSimulation sim(fx.collection.graph, fx.fragments, config);
    sim.RunMeetings(40);
    sim.ReplaceFragment(0, recrawl);
    sim.RunMeetings(20);

    uint64_t h = kFnv1aOffset;
    for (const JxpPeer& peer : sim.peers()) {
      const wire::WorldColumns& world = peer.world_node().columns();
      h = HashColumn(h, peer.local_scores());
      h = HashColumn(h, std::vector<double>{peer.world_score()});
      h = HashColumn(h, world.pages);
      h = HashColumn(h, world.scores);
      h = HashColumn(h, world.dangling_pages);
      h = HashColumn(h, world.dangling_scores);
    }
    h = HashColumn(h, std::vector<double>{sim.network().TotalTrafficBytes(),
                                          sim.total_estimated_traffic_bytes()});
    EXPECT_EQ(h, mode.digest) << "mode " << m << ": digest 0x" << std::hex
                              << std::setw(16) << std::setfill('0') << h;
  }
}

}  // namespace
}  // namespace core
}  // namespace jxp
