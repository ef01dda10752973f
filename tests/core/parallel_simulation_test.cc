#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/simulation.h"
#include "crawler/partitioner.h"
#include "graph/generators.h"

namespace jxp {
namespace core {
namespace {

/// Same miniature setup as simulation_test.cc: categorized web graph,
/// crawl-based fragments.
struct ParallelFixture {
  ParallelFixture() {
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

  std::unique_ptr<JxpSimulation> MakeSim(size_t num_threads, uint64_t seed = 5) {
    SimulationConfig config;
    config.seed = seed;
    config.eval_top_k = 50;
    config.num_threads = num_threads;
    return std::make_unique<JxpSimulation>(collection.graph, fragments, config);
  }

  graph::CategorizedGraph collection;
  std::vector<std::vector<graph::PageId>> fragments;
};

/// The ISSUE's headline guarantee: the parallel meeting engine is a pure
/// function of the seed — per-peer score vectors, world scores, meeting
/// counts, and traffic are bitwise identical at every thread count.
TEST(ParallelSimulationTest, BitIdenticalAcrossThreadCounts) {
  ParallelFixture fx;
  auto base = fx.MakeSim(1);
  base->RunMeetingsParallel(150);
  for (const size_t threads : {2u, 8u}) {
    auto sim = fx.MakeSim(threads);
    sim->RunMeetingsParallel(150);
    ASSERT_EQ(sim->meetings_done(), base->meetings_done());
    ASSERT_EQ(sim->peers().size(), base->peers().size());
    for (size_t p = 0; p < base->peers().size(); ++p) {
      const JxpPeer& a = base->peers()[p];
      const JxpPeer& b = sim->peers()[p];
      EXPECT_EQ(a.num_meetings(), b.num_meetings()) << "peer " << p;
      EXPECT_EQ(a.world_score(), b.world_score()) << "peer " << p;
      EXPECT_EQ(a.local_scores(), b.local_scores()) << "peer " << p;
      EXPECT_EQ(a.world_score_history(), b.world_score_history()) << "peer " << p;
    }
    EXPECT_EQ(sim->network().TotalTrafficBytes(), base->network().TotalTrafficBytes());
  }
}

TEST(ParallelSimulationTest, ErrorDecreasesWithParallelMeetings) {
  ParallelFixture fx;
  auto sim = fx.MakeSim(4);
  const AccuracyPoint initial = sim->Evaluate();
  sim->RunMeetingsParallel(600);
  EXPECT_EQ(sim->meetings_done(), 600u);
  const AccuracyPoint later = sim->Evaluate();
  EXPECT_LT(later.linear_error, initial.linear_error / 4);
  EXPECT_LT(later.footrule, 0.15);
}

TEST(ParallelSimulationTest, RecordsTrafficForBothParticipants) {
  ParallelFixture fx;
  auto sim = fx.MakeSim(4);
  sim->RunMeetingsParallel(20);
  size_t meetings_recorded = 0;
  for (p2p::PeerId p = 0; p < sim->network().NumPeers(); ++p) {
    meetings_recorded += sim->network().TrafficOf(p).bytes_per_meeting.size();
  }
  EXPECT_EQ(meetings_recorded, 40u);
  EXPECT_GT(sim->network().TotalTrafficBytes(), 0.0);
}

TEST(ParallelSimulationTest, MixesWithSequentialRuns) {
  ParallelFixture fx;
  auto sim = fx.MakeSim(2);
  sim->RunMeetings(30);
  sim->RunMeetingsParallel(70);
  sim->RunMeetings(10);
  EXPECT_EQ(sim->meetings_done(), 110u);
}

TEST(ParallelSimulationTest, PreMeetingSelectorIsDeterministicToo) {
  ParallelFixture fx;
  SimulationConfig config;
  config.seed = 13;
  config.eval_top_k = 50;
  config.strategy = SelectionStrategy::kPreMeetings;
  auto run = [&](size_t threads) {
    config.num_threads = threads;
    JxpSimulation sim(fx.collection.graph, fx.fragments, config);
    sim.RunMeetingsParallel(120);
    std::vector<double> scores;
    for (const JxpPeer& peer : sim.peers()) scores.push_back(peer.world_score());
    return scores;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelSimulationTest, SurvivesChurnDeterministically) {
  ParallelFixture fx;
  SimulationConfig config;
  config.seed = 21;
  config.eval_top_k = 50;
  config.churn.leave_probability = 0.02;
  config.churn.join_probability = 0.05;
  config.churn.min_alive = 3;
  auto run = [&](size_t threads) {
    config.num_threads = threads;
    JxpSimulation sim(fx.collection.graph, fx.fragments, config);
    sim.RunMeetingsParallel(200);
    return sim.network().TotalTrafficBytes();
  };
  const double once = run(1);
  EXPECT_GT(once, 0.0);
  EXPECT_EQ(once, run(4));
}

}  // namespace
}  // namespace core
}  // namespace jxp
