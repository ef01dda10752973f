// Cross-checks power iteration against the dense oracle on the *JXP
// extended system* (local rows + world row + non-uniform teleport,
// paper Eqs. 5-10), not just on plain link matrices. The extended system is
// the input every local PageRank run operates on, so agreement here
// underwrites the one solver the system runs.
//
// Tolerance: power iteration stops at L1 residual <= tolerance, which bounds
// its distance from the exact fixed point by tolerance / (1 - damping) (the
// affine map is a damping-contraction in L1). With tolerance 1e-13 and
// damping 0.85 that is ~6.7e-13; the asserted 1e-10 leaves two orders of
// margin for the rounding noise of both solvers.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "core/jxp_peer.h"
#include "graph/generators.h"
#include "markov/dense_solver.h"
#include "markov/power_iteration.h"

namespace jxp {
namespace markov {
namespace {

constexpr double kSolverTolerance = 1e-13;
constexpr double kAgreementTolerance = 1e-10;

void ExpectSolversAgree(const core::ExtendedGraphSystem& system) {
  PowerIterationOptions options;
  options.tolerance = kSolverTolerance;
  options.max_iterations = 5000;
  const PowerIterationResult power = StationaryDistribution(
      system.matrix, system.teleport, {}, options);
  ASSERT_TRUE(power.converged);
  const auto exact = ExactStationaryDistribution(
      ToDenseDamped(system.matrix, system.teleport, options.damping));
  ASSERT_TRUE(exact.ok()) << exact.status();
  ASSERT_EQ(power.distribution.size(), exact.value().size());
  for (size_t i = 0; i < power.distribution.size(); ++i) {
    EXPECT_NEAR(exact.value()[i], power.distribution[i], kAgreementTolerance)
        << "state " << i << " of " << power.distribution.size();
  }
}

TEST(ExtendedSystemCrossCheckTest, SolversAgreeOnFreshPeerSystem) {
  // A fresh peer's system: empty world node, world row = pure self-loop.
  Random rng(11);
  const graph::Graph g = graph::BarabasiAlbert(120, 3, rng);
  std::vector<graph::PageId> pages;
  for (graph::PageId p = 0; p < 40; ++p) pages.push_back(p);
  const graph::Subgraph fragment = graph::Subgraph::Induce(g, pages);
  core::WorldNode world;
  ExpectSolversAgree(core::BuildExtendedSystem(
      fragment, world, 1.0 - 40.0 / 120.0, g.NumNodes()));
}

TEST(ExtendedSystemCrossCheckTest, SolversAgreeOnMetPeersSystems) {
  // Realistic systems: peers that have met carry populated world nodes
  // (non-trivial world rows) and drifted world scores.
  Random rng(12);
  const graph::Graph g = graph::BarabasiAlbert(120, 3, rng);
  core::JxpOptions options;
  options.pr_tolerance = 1e-12;
  std::vector<core::JxpPeer> peers;
  std::vector<std::vector<graph::PageId>> fragments(3);
  for (graph::PageId p = 0; p < g.NumNodes(); ++p) {
    fragments[rng.NextBounded(3)].push_back(p);
  }
  for (size_t p = 0; p < fragments.size(); ++p) {
    peers.emplace_back(static_cast<p2p::PeerId>(p),
                       graph::Subgraph::Induce(g, fragments[p]), g.NumNodes(),
                       options);
  }
  for (int round = 0; round < 8; ++round) {
    core::JxpPeer::Meet(peers[0], peers[1]);
    core::JxpPeer::Meet(peers[1], peers[2]);
    core::JxpPeer::Meet(peers[2], peers[0]);
  }
  for (const core::JxpPeer& peer : peers) {
    ExpectSolversAgree(core::BuildExtendedSystem(
        peer.fragment(), peer.world_node(), peer.world_score(), g.NumNodes()));
  }
}

}  // namespace
}  // namespace markov
}  // namespace jxp
