// Crash-recovery round trip: a simulation that saves every peer mid-run,
// reloads the saved states, and continues must be bit-identical to an
// uninterrupted run — the state files capture *everything* score-relevant,
// and serialization must not perturb a single bit (state_io canonicalizes
// float summation order for exactly this reason).

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/simulation.h"
#include "graph/generators.h"

namespace jxp {
namespace core {
namespace {

/// Overlapping fragments: pages by residue, every 5th page replicated on
/// the next peer (exercises replica handling in save/restore).
std::vector<std::vector<graph::PageId>> MakeFragments(size_t num_nodes,
                                                      size_t num_peers) {
  std::vector<std::vector<graph::PageId>> fragments(num_peers);
  for (graph::PageId p = 0; p < num_nodes; ++p) {
    fragments[p % num_peers].push_back(p);
    if (p % 5 == 0) fragments[(p + 1) % num_peers].push_back(p);
  }
  return fragments;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(21);
    graph_ = graph::BarabasiAlbert(150, 3, rng);
    dir_ = ::testing::TempDir() + "jxp_recovery_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }

  SimulationConfig Config() const {
    SimulationConfig config;
    config.jxp.pr_tolerance = 1e-12;
    config.jxp.pr_max_iterations = 400;
    config.seed = 97;
    return config;
  }

  JxpSimulation MakeSim(const SimulationConfig& config) {
    return JxpSimulation(graph_, MakeFragments(150, 5), config);
  }

  static void ExpectIdenticalScores(const JxpSimulation& a, const JxpSimulation& b) {
    ASSERT_EQ(a.peers().size(), b.peers().size());
    EXPECT_EQ(a.meetings_done(), b.meetings_done());
    EXPECT_EQ(a.network().TotalTrafficBytes(), b.network().TotalTrafficBytes());
    for (size_t p = 0; p < a.peers().size(); ++p) {
      // EXPECT_EQ, not NEAR: the runs must agree bit for bit.
      EXPECT_EQ(a.peers()[p].world_score(), b.peers()[p].world_score())
          << "world score of peer " << p;
      EXPECT_EQ(a.peers()[p].local_scores(), b.peers()[p].local_scores())
          << "local scores of peer " << p;
    }
  }

  graph::Graph graph_;
  std::string dir_;
};

TEST_F(CrashRecoveryTest, SequentialResumeIsBitIdentical) {
  JxpSimulation uninterrupted = MakeSim(Config());
  uninterrupted.RunMeetings(200);

  JxpSimulation interrupted = MakeSim(Config());
  interrupted.RunMeetings(100);
  ASSERT_TRUE(interrupted.SaveAllPeerStates(dir_).ok());
  ASSERT_TRUE(interrupted.LoadAllPeerStates(dir_).ok());
  interrupted.RunMeetings(100);

  ExpectIdenticalScores(uninterrupted, interrupted);
}

TEST_F(CrashRecoveryTest, CrossObjectRestoreMatchesSavedState) {
  JxpSimulation original = MakeSim(Config());
  original.RunMeetings(120);
  ASSERT_TRUE(original.SaveAllPeerStates(dir_).ok());

  // A freshly constructed simulation (same world, same config) restored
  // from the files carries exactly the saved scores.
  JxpSimulation restored = MakeSim(Config());
  ASSERT_TRUE(restored.LoadAllPeerStates(dir_).ok());
  for (size_t p = 0; p < original.peers().size(); ++p) {
    EXPECT_EQ(restored.peers()[p].world_score(), original.peers()[p].world_score());
    EXPECT_EQ(restored.peers()[p].local_scores(), original.peers()[p].local_scores());
  }
}

TEST_F(CrashRecoveryTest, SaveLoadIsIdempotent) {
  // Loading a peer's own just-saved state must be a pure no-op, even when
  // repeated (no drift from repeated serialization round trips).
  JxpSimulation sim = MakeSim(Config());
  sim.RunMeetings(60);
  ASSERT_TRUE(sim.SaveAllPeerStates(dir_).ok());
  ASSERT_TRUE(sim.LoadAllPeerStates(dir_).ok());
  const std::vector<double> world_after_first = [&] {
    std::vector<double> w;
    for (const JxpPeer& peer : sim.peers()) w.push_back(peer.world_score());
    return w;
  }();
  ASSERT_TRUE(sim.SaveAllPeerStates(dir_).ok());
  ASSERT_TRUE(sim.LoadAllPeerStates(dir_).ok());
  for (size_t p = 0; p < sim.peers().size(); ++p) {
    EXPECT_EQ(sim.peers()[p].world_score(), world_after_first[p]);
  }
}

TEST_F(CrashRecoveryTest, LoadFromMissingDirectoryFails) {
  JxpSimulation sim = MakeSim(Config());
  sim.RunMeetings(10);
  const Status status = sim.LoadAllPeerStates(dir_ + "_absent");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST_F(CrashRecoveryTest, SaveToUncreatableDirectoryFails) {
  // A regular file where a directory component is needed makes
  // create_directories fail; that must surface as a Status, not an abort.
  const std::string blocker = dir_ + "_file";
  { std::ofstream out(blocker); out << "not a directory"; }
  JxpSimulation sim = MakeSim(Config());
  const Status status = sim.SaveAllPeerStates(blocker + "/sub");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace core
}  // namespace jxp
