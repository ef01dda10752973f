// Randomized property tests of the JXP theorems on the bytes the daemons
// send. Peers meet the way two daemons do: both encode their meeting blob
// with EncodeMeetingBytes, each blob suffers a p2p::FaultPlan draw (drop,
// truncation or one flipped bit), and each side applies what arrived with
// ApplyMeetingBytes. Two faults of the peer processes ride along: a crashed
// side applies nothing, and a stale resume reloads a side from its last
// state_io checkpoint before the meeting.
//   Safety      (Thm 5.3): scores never overestimate the true PageRank, no
//               matter which faults hit which meetings;
//   Monotone    (Thm 5.1): under message faults and crashes the world score
//               still never rises — each applied blob decodes to an honest
//               JXP message, each suppressed side simply keeps its state;
//   Convergence (Thm 5.4): a fault storm followed by a clean fair meeting
//               phase still converges to the true PageRank.
// Each property runs JXP_PROPTEST_CASES randomized cases (default 100);
// failures print a one-line JXP_PROPTEST_SEED repro.

#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/jxp_peer.h"
#include "core/state_io.h"
#include "generators.h"
#include "pagerank/pagerank.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

using core::JxpPeer;

constexpr double kSafetySlack = 1e-9;
constexpr double kMonotoneSlack = 1e-9;
/// A peer is re-checkpointed once it has applied this many meetings since
/// its last checkpoint, so a stale resume rolls it back by at most this many.
constexpr size_t kCheckpointEvery = 4;

core::JxpOptions OptionsFor(const FaultCase& c) {
  core::JxpOptions options;
  options.pr_tolerance = 1e-14;
  options.pr_max_iterations = 1000;
  options.merge_mode =
      c.full_merge ? core::MergeMode::kFullMerge : core::MergeMode::kLightWeight;
  options.combine_mode = core::CombineMode::kTakeMax;
  return options;
}

/// True PageRank of the case's graph, tighter than any peer's solve.
std::optional<std::vector<double>> TruePageRank(const graph::Graph& graph) {
  pagerank::PageRankOptions options;
  options.damping = core::JxpOptions().damping;
  options.tolerance = 1e-14;
  options.max_iterations = 2000;
  pagerank::PageRankResult result = ComputePageRank(graph, options);
  if (!result.converged) return std::nullopt;
  return std::move(result.scores);
}

/// The case's peers meeting over bytes, as a daemon cluster does.
class ByteMeetingLoop {
 public:
  ByteMeetingLoop(const FaultCase& c, const GeneratedWorld& world)
      : case_(c), schedule_(c.seed ^ 0x5701c4), faults_(c.plan.seed) {
    const core::JxpOptions options = OptionsFor(c);
    peers_.reserve(c.num_peers);
    for (size_t p = 0; p < c.num_peers; ++p) {
      peers_.emplace_back(static_cast<p2p::PeerId>(p),
                          graph::Subgraph::Induce(world.graph, world.fragments[p]),
                          world.graph.NumNodes(), options);
    }
    if (c.stale_resume_probability > 0) {
      const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
      checkpoint_dir_ = ::testing::TempDir() + "jxp_" + test->name() + "_" +
                        std::to_string(c.seed);
      std::filesystem::create_directories(checkpoint_dir_);
      meetings_at_checkpoint_.assign(c.num_peers, 0);
      for (size_t p = 0; p < c.num_peers; ++p) Checkpoint(p);
    }
  }

  ~ByteMeetingLoop() {
    if (!checkpoint_dir_.empty()) std::filesystem::remove_all(checkpoint_dir_);
  }

  const std::vector<JxpPeer>& peers() const { return peers_; }

  /// One meeting between a random pair, under the case's faults when
  /// `faulty`, else clean.
  void MeetRandomPair(bool faulty) {
    const size_t a = schedule_.NextBounded(peers_.size());
    size_t b = schedule_.NextBounded(peers_.size() - 1);
    if (b >= a) ++b;
    if (faulty && !checkpoint_dir_.empty()) {
      for (size_t p : {a, b}) {
        if (schedule_.NextBool(case_.stale_resume_probability)) Resume(p);
      }
    }
    // Both sides encode before either applies: the exchange is simultaneous.
    std::vector<uint8_t> to_b = peers_[a].EncodeMeetingBytes();
    std::vector<uint8_t> to_a = peers_[b].EncodeMeetingBytes();
    bool crash_a = false;
    bool crash_b = false;
    if (faulty) {
      case_.plan.Draw(to_b.size(), faults_).ApplyTo(to_b);
      case_.plan.Draw(to_a.size(), faults_).ApplyTo(to_a);
      crash_a = schedule_.NextBool(case_.crash_probability);
      crash_b = schedule_.NextBool(case_.crash_probability);
    }
    if (!crash_a) peers_[a].ApplyMeetingBytes(to_a);
    if (!crash_b) peers_[b].ApplyMeetingBytes(to_b);
    if (!checkpoint_dir_.empty()) {
      for (size_t p : {a, b}) {
        if (peers_[p].num_meetings() - meetings_at_checkpoint_[p] >= kCheckpointEvery) {
          Checkpoint(p);
        }
      }
    }
  }

 private:
  std::string CheckpointPath(size_t p) const {
    return checkpoint_dir_ + "/peer_" + std::to_string(p) + ".jxp";
  }

  void Checkpoint(size_t p) {
    const Status status = core::SavePeerState(peers_[p], CheckpointPath(p));
    JXP_CHECK(status.ok()) << status.ToString();
    meetings_at_checkpoint_[p] = peers_[p].num_meetings();
  }

  void Resume(size_t p) {
    StatusOr<JxpPeer> restored = core::LoadPeerState(CheckpointPath(p), peers_[p].options());
    JXP_CHECK(restored.ok()) << restored.status().ToString();
    peers_[p] = std::move(restored).value();
    meetings_at_checkpoint_[p] = peers_[p].num_meetings();
  }

  const FaultCase& case_;
  std::vector<JxpPeer> peers_;
  /// Pairs, crashes and stale resumes.
  Random schedule_;
  /// The FaultPlan's byte-fault stream, seeded like a chaos proxy's.
  Random faults_;
  /// Empty unless the case draws stale resumes.
  std::string checkpoint_dir_;
  std::vector<size_t> meetings_at_checkpoint_;
};

/// pi_w per peer: 1 - sum of the true PageRank over the peer's pages.
std::vector<double> TrueWorldScores(const std::vector<JxpPeer>& peers,
                                    const std::vector<double>& pi) {
  std::vector<double> true_world;
  true_world.reserve(peers.size());
  for (const JxpPeer& peer : peers) {
    double local = 0;
    for (graph::PageId page : peer.fragment().Pages()) local += pi[page];
    true_world.push_back(1.0 - local);
  }
  return true_world;
}

/// Checks Thm 5.3 for every peer: alpha in (0, pi + slack], world score in
/// [pi_w - slack, 1).
CheckResult CheckSafety(const std::vector<JxpPeer>& peers, const std::vector<double>& pi,
                        const std::vector<double>& true_world, size_t meeting) {
  for (const JxpPeer& peer : peers) {
    const size_t p = peer.id();
    if (peer.world_score() < true_world[p] - kSafetySlack || peer.world_score() >= 1.0) {
      std::ostringstream os;
      os << "world score " << peer.world_score() << " of peer " << p
         << " violates [pi_w=" << true_world[p] << ", 1) after meeting " << meeting;
      return os.str();
    }
    const graph::Subgraph& fragment = peer.fragment();
    for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
      const double alpha = peer.local_scores()[i];
      const double truth = pi[fragment.GlobalId(i)];
      if (!(alpha > 0) || alpha > truth + kSafetySlack) {
        std::ostringstream os;
        os << "page " << fragment.GlobalId(i) << " of peer " << p << " has alpha="
           << alpha << " vs pi=" << truth << " after meeting " << meeting;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

TEST(FaultProperties, SafetyUnderMixedFaults) {
  PlanLimits limits;
  limits.max_drop = 0.3;
  limits.max_truncation = 0.3;
  limits.max_corruption = 0.3;
  limits.max_crash = 0.2;
  limits.max_stale_resume = 0.15;
  ForAll<FaultCase>(
      0x5afe701, 100, [&](uint64_t seed) { return GenerateFaultCase(seed, limits); },
      [](const FaultCase& c) -> CheckResult {
        const GeneratedWorld world = BuildWorld(c);
        const std::optional<std::vector<double>> pi = TruePageRank(world.graph);
        if (!pi.has_value()) return "centralized baseline did not converge";
        ByteMeetingLoop loop(c, world);
        const std::vector<double> true_world = TrueWorldScores(loop.peers(), *pi);
        for (size_t m = 0; m < c.num_meetings; ++m) {
          loop.MeetRandomPair(/*faulty=*/true);
          if (CheckResult failure = CheckSafety(loop.peers(), *pi, true_world, m)) {
            return failure;
          }
        }
        return std::nullopt;
      });
}

TEST(FaultProperties, WorldScoreMonotoneUnderMessageFaults) {
  // Stale resumes legitimately move a world score back up (the peer
  // re-enters an earlier point of its own monotone trajectory), so this
  // property draws every fault *except* them.
  PlanLimits limits;
  limits.max_drop = 0.3;
  limits.max_truncation = 0.3;
  limits.max_corruption = 0.3;
  limits.max_crash = 0.3;
  ForAll<FaultCase>(
      0x30007001, 100, [&](uint64_t seed) { return GenerateFaultCase(seed, limits); },
      [](const FaultCase& c) -> CheckResult {
        FaultCase lw = c;
        lw.full_merge = false;  // Thm 5.1 covers the light-weight merge.
        ByteMeetingLoop loop(lw, BuildWorld(lw));
        std::vector<double> prev;
        prev.reserve(loop.peers().size());
        for (const JxpPeer& peer : loop.peers()) prev.push_back(peer.world_score());
        for (size_t m = 0; m < lw.num_meetings; ++m) {
          loop.MeetRandomPair(/*faulty=*/true);
          for (const JxpPeer& peer : loop.peers()) {
            if (peer.world_score() > prev[peer.id()] + kMonotoneSlack) {
              std::ostringstream os;
              os << "world score of peer " << peer.id() << " rose " << prev[peer.id()]
                 << " -> " << peer.world_score() << " at meeting " << m;
              return os.str();
            }
            prev[peer.id()] = peer.world_score();
          }
        }
        return std::nullopt;
      });
}

TEST(FaultProperties, ConvergesAfterFaultStorm) {
  // A storm phase where every meeting runs under the case's faults, then a
  // clean fair phase; Thm 5.4 still applies because every reachable state
  // is a safe JXP state.
  PlanLimits limits;
  limits.max_drop = 0.3;
  limits.max_truncation = 0.3;
  limits.max_corruption = 0.3;
  limits.max_crash = 0.4;
  ForAll<FaultCase>(
      0xc0471013, 100, [&](uint64_t seed) { return GenerateFaultCase(seed, limits); },
      [](const FaultCase& c) -> CheckResult {
        const GeneratedWorld world = BuildWorld(c);
        const std::optional<std::vector<double>> pi = TruePageRank(world.graph);
        if (!pi.has_value()) return "centralized baseline did not converge";
        ByteMeetingLoop loop(c, world);
        for (size_t m = 0; m < c.num_meetings; ++m) loop.MeetRandomPair(/*faulty=*/true);
        // Clean phase: the theorem-test fair schedule.
        for (size_t m = 0; m < 150 * c.num_peers; ++m) loop.MeetRandomPair(/*faulty=*/false);

        for (const JxpPeer& peer : loop.peers()) {
          const graph::Subgraph& fragment = peer.fragment();
          double local = 0;
          for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
            const double diff =
                std::abs(peer.local_scores()[i] - (*pi)[fragment.GlobalId(i)]);
            if (diff > 1e-4) {
              std::ostringstream os;
              os << "peer " << peer.id() << " page " << fragment.GlobalId(i)
                 << " off by " << diff << " after recovery";
              return os.str();
            }
            local += (*pi)[fragment.GlobalId(i)];
          }
          if (std::abs(peer.world_score() - (1.0 - local)) > 1e-3) {
            std::ostringstream os;
            os << "peer " << peer.id() << " world score " << peer.world_score()
               << " vs pi_w " << (1.0 - local) << " after recovery";
            return os.str();
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
