// Crash-recovery round trip: peers that save their state mid-run, reload it
// and continue must be bit-identical to an uninterrupted run — the state
// files capture *everything* score-relevant, and serialization must not
// perturb a single bit (state_io canonicalizes float summation order for
// exactly this reason). This is the daemon's checkpoint path: one
// SavePeerState and one LoadPeerState per peer.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/jxp_peer.h"
#include "core/state_io.h"
#include "graph/generators.h"
#include "graph/subgraph.h"

namespace jxp {
namespace core {
namespace {

constexpr size_t kNodes = 150;
constexpr size_t kPeers = 5;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Random rng(21);
    graph_ = graph::BarabasiAlbert(kNodes, 3, rng);
    path_prefix_ = ::testing::TempDir() + "jxp_recovery_" +
                   ::testing::UnitTest::GetInstance()->current_test_info()->name();
    options_.pr_tolerance = 1e-12;
    options_.pr_max_iterations = 400;
  }

  /// Overlapping fragments: pages by residue, every 5th page replicated on
  /// the next peer (exercises replica handling in save/restore).
  std::vector<JxpPeer> MakePeers() const {
    std::vector<std::vector<graph::PageId>> fragments(kPeers);
    for (graph::PageId p = 0; p < kNodes; ++p) {
      fragments[p % kPeers].push_back(p);
      if (p % 5 == 0) fragments[(p + 1) % kPeers].push_back(p);
    }
    std::vector<JxpPeer> peers;
    for (size_t p = 0; p < kPeers; ++p) {
      peers.emplace_back(static_cast<p2p::PeerId>(p),
                         graph::Subgraph::Induce(graph_, std::move(fragments[p])), kNodes,
                         options_);
    }
    return peers;
  }

  /// Runs `count` meetings between random distinct peers drawn from `rng`.
  static void RunMeetings(std::vector<JxpPeer>& peers, Random& rng, size_t count) {
    for (size_t m = 0; m < count; ++m) {
      const size_t a = static_cast<size_t>(rng.NextBounded(peers.size()));
      size_t b = a;
      while (b == a) b = static_cast<size_t>(rng.NextBounded(peers.size()));
      JxpPeer::Meet(peers[a], peers[b]);
    }
  }

  std::string PathOf(size_t peer) const {
    return path_prefix_ + "_" + std::to_string(peer) + ".jxp";
  }

  /// Checkpoints every peer into its own file, as each daemon does.
  void SaveAll(const std::vector<JxpPeer>& peers) const {
    for (size_t p = 0; p < peers.size(); ++p) {
      ASSERT_TRUE(SavePeerState(peers[p], PathOf(p)).ok());
    }
  }

  /// Replaces every peer with the state loaded from its checkpoint file.
  void LoadAll(std::vector<JxpPeer>& peers) const {
    for (size_t p = 0; p < peers.size(); ++p) {
      StatusOr<JxpPeer> restored = LoadPeerState(PathOf(p), options_);
      ASSERT_TRUE(restored.ok()) << restored.status();
      ASSERT_EQ(restored->id(), peers[p].id());
      peers[p] = std::move(restored).value();
    }
  }

  void RemoveAll() const {
    for (size_t p = 0; p < kPeers; ++p) std::remove(PathOf(p).c_str());
  }

  graph::Graph graph_;
  JxpOptions options_;
  std::string path_prefix_;
};

TEST_F(CrashRecoveryTest, SequentialResumeIsBitIdentical) {
  std::vector<JxpPeer> uninterrupted = MakePeers();
  Random uninterrupted_rng(97);
  RunMeetings(uninterrupted, uninterrupted_rng, 200);

  std::vector<JxpPeer> interrupted = MakePeers();
  Random interrupted_rng(97);
  RunMeetings(interrupted, interrupted_rng, 100);
  SaveAll(interrupted);
  LoadAll(interrupted);
  RemoveAll();
  RunMeetings(interrupted, interrupted_rng, 100);

  for (size_t p = 0; p < kPeers; ++p) {
    // EXPECT_EQ, not NEAR: the runs must agree bit for bit.
    EXPECT_EQ(uninterrupted[p].world_score(), interrupted[p].world_score())
        << "world score of peer " << p;
    EXPECT_EQ(uninterrupted[p].local_scores(), interrupted[p].local_scores())
        << "local scores of peer " << p;
  }
}

TEST_F(CrashRecoveryTest, CrossObjectRestoreMatchesSavedState) {
  std::vector<JxpPeer> original = MakePeers();
  Random rng(97);
  RunMeetings(original, rng, 120);
  SaveAll(original);

  // Freshly constructed peers (same world, same options) restored from the
  // files carry exactly the saved scores.
  std::vector<JxpPeer> restored = MakePeers();
  LoadAll(restored);
  RemoveAll();
  for (size_t p = 0; p < kPeers; ++p) {
    EXPECT_EQ(restored[p].world_score(), original[p].world_score());
    EXPECT_EQ(restored[p].local_scores(), original[p].local_scores());
  }
}

TEST_F(CrashRecoveryTest, SaveLoadIsIdempotent) {
  // Loading a peer's own just-saved state must be a pure no-op, even when
  // repeated (no drift from repeated serialization round trips).
  std::vector<JxpPeer> peers = MakePeers();
  Random rng(97);
  RunMeetings(peers, rng, 60);
  SaveAll(peers);
  LoadAll(peers);
  std::vector<double> world_after_first;
  std::vector<std::vector<double>> local_after_first;
  for (const JxpPeer& peer : peers) {
    world_after_first.push_back(peer.world_score());
    local_after_first.push_back(peer.local_scores());
  }
  SaveAll(peers);
  LoadAll(peers);
  RemoveAll();
  for (size_t p = 0; p < kPeers; ++p) {
    EXPECT_EQ(peers[p].world_score(), world_after_first[p]);
    EXPECT_EQ(peers[p].local_scores(), local_after_first[p]);
  }
}

TEST_F(CrashRecoveryTest, LoadFromMissingDirectoryFails) {
  const StatusOr<JxpPeer> restored =
      LoadPeerState(path_prefix_ + "_absent/0.jxp", options_);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace core
}  // namespace jxp
