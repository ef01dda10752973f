// Property test of the local PageRank under randomized churn schedules
// (meetings interleaved with fragment add/remove/edit events applied through
// JxpPeer::ReplaceFragment): scores never overestimate the true PageRank
// after lower-bound rounding (Thm 5.3, with a slack covering the
// churn-transient overshoot — see kSafetySlack).
//
// Failures print a one-line JXP_PROPTEST_SEED repro with the case's
// generator parameters.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/jxp_peer.h"
#include "generators.h"
#include "graph/subgraph.h"
#include "pagerank/pagerank.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

using core::JxpOptions;
using core::JxpPeer;

/// Solve tolerance of every local PageRank run.
constexpr double kPrTolerance = 1e-13;
/// Lower-bound rounding of the never-overestimate check (Thm 5.3). Thm 5.3
/// assumes fixed fragments; a re-crawl transfers world-node estimates that
/// are transiently stale, so churn schedules overshoot pi by up to ~2e-8
/// (measured over 600 schedules). 1e-6 gives 50x margin over that transient
/// while staying four orders below typical score magnitudes.
constexpr double kSafetySlack = 1e-6;

JxpOptions BaseOptions(const ChurnCase& c) {
  JxpOptions options;
  options.pr_tolerance = kPrTolerance;
  options.pr_max_iterations = 2000;
  options.merge_mode =
      c.full_merge ? core::MergeMode::kFullMerge : core::MergeMode::kLightWeight;
  options.combine_mode = core::CombineMode::kTakeMax;
  return options;
}

std::vector<JxpPeer> BuildPeers(const GeneratedWorld& world, const JxpOptions& options) {
  std::vector<JxpPeer> peers;
  peers.reserve(world.fragments.size());
  for (size_t p = 0; p < world.fragments.size(); ++p) {
    peers.emplace_back(static_cast<p2p::PeerId>(p),
                       graph::Subgraph::Induce(world.graph, world.fragments[p]),
                       world.graph.NumNodes(), options);
  }
  return peers;
}

/// Replays the case's schedule over `peers`, tracking each peer's page set,
/// and calls `after_event(event_index)` after every event. Returns the
/// callback's first failure.
template <typename Fn>
CheckResult ReplaySchedule(const ChurnCase& c, const GeneratedWorld& world,
                           std::vector<JxpPeer>& peers, Fn after_event) {
  std::vector<std::vector<graph::PageId>> pages = world.fragments;
  const std::vector<ChurnEvent> schedule = BuildChurnSchedule(c);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const ChurnEvent& e = schedule[i];
    if (e.kind == ChurnEvent::Kind::kMeeting) {
      JxpPeer::Meet(peers[e.peer_a], peers[e.peer_b]);
    } else {
      pages[e.peer_a] = ApplyChurnEvent(e, c.num_nodes, std::move(pages[e.peer_a]));
      peers[e.peer_a].ReplaceFragment(
          graph::Subgraph::Induce(world.graph, pages[e.peer_a]));
    }
    if (CheckResult failure = after_event(i)) return failure;
  }
  return std::nullopt;
}

TEST(ChurnProperty, NeverOverestimatesUnderChurn) {
  ForAll<ChurnCase>(
      0x16c45afe, 30, [](uint64_t seed) { return GenerateChurnCase(seed); },
      [](const ChurnCase& c) -> CheckResult {
        const GeneratedWorld world = BuildWorld(c);
        // Churn re-partitions a fixed global graph, so the true PageRank —
        // the Thm 5.3 upper bound — is one computation per case.
        pagerank::PageRankOptions pr;
        pr.tolerance = 1e-14;
        pr.max_iterations = 2000;
        const pagerank::PageRankResult truth = pagerank::ComputePageRank(world.graph, pr);
        std::vector<JxpPeer> peers = BuildPeers(world, BaseOptions(c));
        return ReplaySchedule(c, world, peers, [&](size_t i) -> CheckResult {
          for (const JxpPeer& peer : peers) {
            const graph::Subgraph& fragment = peer.fragment();
            for (graph::Subgraph::LocalIndex k = 0; k < fragment.NumLocalPages(); ++k) {
              const double alpha = peer.local_scores()[k];
              const double pi = truth.scores[fragment.GlobalId(k)];
              if (!(alpha > 0) || alpha > pi + kSafetySlack) {
                std::ostringstream os;
                os.precision(17);
                os << "page " << fragment.GlobalId(k) << " of peer " << peer.id()
                   << " has alpha=" << alpha << " vs pi=" << pi << " after event " << i;
                return os.str();
              }
            }
            if (peer.world_score() >= 1.0 || !(peer.world_score() > 0)) {
              std::ostringstream os;
              os << "world score " << peer.world_score() << " of peer " << peer.id()
                 << " outside (0, 1) after event " << i;
              return os.str();
            }
          }
          return std::nullopt;
        });
      });
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
