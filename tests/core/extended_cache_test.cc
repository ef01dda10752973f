#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "markov/power_iteration.h"
#include "testing/world_folds.h"

namespace jxp {
namespace core {
namespace {

/// Asserts two extended systems are identical bit for bit — the cache's
/// contract is exact agreement with a fresh BuildExtendedSystem, not mere
/// numerical closeness.
void ExpectSystemsIdentical(const ExtendedGraphSystem& a, const ExtendedGraphSystem& b) {
  ASSERT_EQ(a.matrix.NumStates(), b.matrix.NumStates());
  for (size_t i = 0; i < a.matrix.NumStates(); ++i) {
    const auto row_a = a.matrix.Row(i);
    const auto row_b = b.matrix.Row(i);
    ASSERT_EQ(row_a.size(), row_b.size()) << "row " << i;
    for (size_t k = 0; k < row_a.size(); ++k) {
      EXPECT_EQ(row_a[k].column, row_b[k].column) << "row " << i << " entry " << k;
      EXPECT_EQ(row_a[k].weight, row_b[k].weight) << "row " << i << " entry " << k;
    }
    EXPECT_EQ(a.matrix.RowSum(i), b.matrix.RowSum(i)) << "row " << i;
  }
  EXPECT_EQ(a.teleport, b.teleport);
  EXPECT_EQ(a.world_row_clamped, b.world_row_clamped);
}

/// Deterministic per-page out-degree, so that repeated reports of one page
/// agree on it.
uint32_t OutDegreeOf(graph::PageId page) { return 5 + page % 7; }

/// A random global graph, a random fragment of it, and a world node with
/// randomized external in-link knowledge (some pages dangling).
struct RandomCase {
  explicit RandomCase(uint64_t seed) : rng(seed) {
    const size_t n = 120 + rng.NextBounded(80);
    graph::GraphBuilder builder(n);
    for (graph::PageId u = 0; u < n; ++u) {
      const size_t degree = rng.NextBounded(7);
      for (size_t k = 0; k < degree; ++k) {
        builder.AddEdge(u, static_cast<graph::PageId>(rng.NextBounded(n)));
      }
    }
    global = builder.Build();
    global_size = n;

    const size_t local = 20 + rng.NextBounded(30);
    std::vector<graph::PageId> pages;
    for (size_t idx : rng.SampleWithoutReplacement(n, local)) {
      pages.push_back(static_cast<graph::PageId>(idx));
    }
    fragment = graph::Subgraph::Induce(global, std::move(pages));

    // Random external in-link knowledge: external pages pointing at random
    // local targets, plus a few dangling entries.
    const size_t num_entries = 5 + rng.NextBounded(15);
    for (size_t e = 0; e < num_entries; ++e) {
      const graph::PageId page = static_cast<graph::PageId>(rng.NextBounded(n));
      if (fragment.LocalIndexOf(page) != graph::Subgraph::kNotLocal) continue;
      const size_t num_targets = 1 + rng.NextBounded(4);
      std::vector<graph::PageId> targets;
      for (size_t idx :
           rng.SampleWithoutReplacement(fragment.NumLocalPages(), num_targets)) {
        targets.push_back(fragment.GlobalId(static_cast<uint32_t>(idx)));
      }
      std::sort(targets.begin(), targets.end());
      FoldEntry(world, page, OutDegreeOf(page), rng.NextDouble() * 0.02, targets,
                CombineMode::kTakeMax);
    }
    for (size_t d = 0; d < 3; ++d) {
      const graph::PageId page = static_cast<graph::PageId>(rng.NextBounded(n));
      if (fragment.LocalIndexOf(page) != graph::Subgraph::kNotLocal) continue;
      FoldDangling(world, page, rng.NextDouble() * 0.01, CombineMode::kTakeMax);
    }
  }

  /// A page guaranteed external to the fragment (so it can enter the world node).
  graph::PageId ExternalPage() const {
    graph::PageId page = static_cast<graph::PageId>(global_size - 1);
    while (fragment.LocalIndexOf(page) != graph::Subgraph::kNotLocal) --page;
    return page;
  }

  Random rng;
  graph::Graph global;
  size_t global_size = 0;
  graph::Subgraph fragment;
  WorldNode world;
};

TEST(ExtendedSystemCacheTest, PrepareMatchesFreshBuild) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomCase c(seed);
    for (const auto weighting :
         {WorldLinkWeighting::kScoreProportional, WorldLinkWeighting::kUniform}) {
      const double world_score = 0.2 + c.rng.NextDouble() * 0.7;
      const ExtendedGraphSystem fresh = BuildExtendedSystem(
          c.fragment, c.world, world_score, c.global_size, weighting);
      ExtendedSystemCache cache;
      const ExtendedGraphSystem& cached =
          cache.Prepare(c.fragment, c.world, world_score, c.global_size, weighting);
      ExpectSystemsIdentical(cached, fresh);
    }
  }
}

TEST(ExtendedSystemCacheTest, RescaleMatchesFreshBuildAtNewDenominator) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    RandomCase c(seed);
    ExtendedSystemCache cache;
    cache.Prepare(c.fragment, c.world, 0.8, c.global_size,
                  WorldLinkWeighting::kScoreProportional);
    // The denominator guard loop shrinks alpha_w; each Rescale must agree
    // exactly with a from-scratch build at that denominator.
    for (const double d : {0.55, 0.31, 0.07, 0.8}) {
      const ExtendedGraphSystem& rescaled = cache.Rescale(d);
      const ExtendedGraphSystem fresh =
          BuildExtendedSystem(c.fragment, c.world, d, c.global_size);
      ExpectSystemsIdentical(rescaled, fresh);
    }
  }
}

TEST(ExtendedSystemCacheTest, ReusedAcrossWorldNodeChanges) {
  RandomCase c(23);
  ExtendedSystemCache cache;
  cache.Prepare(c.fragment, c.world, 0.6, c.global_size,
                WorldLinkWeighting::kScoreProportional);
  // A meeting teaches the peer new external in-links; the next Prepare must
  // pick them up while still reusing the local rows.
  std::vector<graph::PageId> targets = {c.fragment.GlobalId(0)};
  const graph::PageId external = c.ExternalPage();
  FoldEntry(c.world, external, OutDegreeOf(external), 0.015, targets,
            CombineMode::kTakeMax);
  FoldDangling(c.world, external, 0.004, CombineMode::kTakeMax);
  const ExtendedGraphSystem& cached =
      cache.Prepare(c.fragment, c.world, 0.45, c.global_size,
                    WorldLinkWeighting::kScoreProportional);
  const ExtendedGraphSystem fresh =
      BuildExtendedSystem(c.fragment, c.world, 0.45, c.global_size);
  ExpectSystemsIdentical(cached, fresh);
}

TEST(ExtendedSystemCacheTest, InvalidateFragmentRebuildsLocalRows) {
  RandomCase a(31);
  RandomCase b(32);
  ExtendedSystemCache cache;
  cache.Prepare(a.fragment, a.world, 0.5, a.global_size,
                WorldLinkWeighting::kScoreProportional);
  // ReplaceFragment semantics: drop the local rows, then serve a different
  // fragment correctly.
  cache.InvalidateFragment();
  const ExtendedGraphSystem& cached =
      cache.Prepare(b.fragment, b.world, 0.5, b.global_size,
                    WorldLinkWeighting::kScoreProportional);
  const ExtendedGraphSystem fresh =
      BuildExtendedSystem(b.fragment, b.world, 0.5, b.global_size);
  ExpectSystemsIdentical(cached, fresh);
}

TEST(ExtendedSystemCacheTest, ClampedFlagMatchesFreshBuild) {
  RandomCase c(41);
  // Force a super-stochastic world row: one stored score far above the
  // denominator.
  std::vector<graph::PageId> targets = {c.fragment.GlobalId(0)};
  const graph::PageId external = c.ExternalPage();
  FoldEntry(c.world, external, OutDegreeOf(external), 0.9, targets,
            CombineMode::kTakeMax);
  ExtendedSystemCache cache;
  const ExtendedGraphSystem& cached =
      cache.Prepare(c.fragment, c.world, 0.05, c.global_size,
                    WorldLinkWeighting::kScoreProportional);
  const ExtendedGraphSystem fresh =
      BuildExtendedSystem(c.fragment, c.world, 0.05, c.global_size);
  EXPECT_TRUE(fresh.world_row_clamped);
  ExpectSystemsIdentical(cached, fresh);
  // Rescaling to a healthy denominator clears the flag, exactly as a fresh
  // build would.
  const ExtendedGraphSystem& healthy = cache.Rescale(0.95);
  const ExtendedGraphSystem fresh_healthy =
      BuildExtendedSystem(c.fragment, c.world, 0.95, c.global_size);
  EXPECT_FALSE(fresh_healthy.world_row_clamped);
  ExpectSystemsIdentical(healthy, fresh_healthy);
}

TEST(ExtendedSystemCacheTest, StationaryDistributionIdenticalToFreshBuild) {
  // The end-to-end property JxpPeer relies on: running the local PageRank
  // on the cached system gives the *same* result as on a fresh build.
  for (uint64_t seed = 51; seed <= 54; ++seed) {
    RandomCase c(seed);
    ExtendedSystemCache cache;
    cache.Prepare(c.fragment, c.world, 0.9, c.global_size,
                  WorldLinkWeighting::kScoreProportional);
    const ExtendedGraphSystem& cached = cache.Rescale(0.62);
    const ExtendedGraphSystem fresh =
        BuildExtendedSystem(c.fragment, c.world, 0.62, c.global_size);
    markov::PowerIterationOptions options;
    options.tolerance = 1e-12;
    const auto from_cached = StationaryDistribution(cached.matrix, cached.teleport, {}, options);
    const auto from_fresh = StationaryDistribution(fresh.matrix, fresh.teleport, {}, options);
    ASSERT_TRUE(from_cached.converged);
    EXPECT_EQ(from_cached.distribution, from_fresh.distribution);
    EXPECT_EQ(from_cached.iterations, from_fresh.iterations);
  }
}

}  // namespace
}  // namespace core
}  // namespace jxp
