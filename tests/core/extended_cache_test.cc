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

/// The world row (state n) of `fragment` + `world` at `denominator`, built
/// here with the per-link formula of paper Eqs. 8-9, independently of the
/// cache: each link r -> i carries (1/out(r)) * (alpha(r)/alpha_w), summed in
/// (target, page) order; the row is scaled back when its mass exceeds 1; a
/// dangling share (alpha_dangling/alpha_w)/N goes to every local page; the
/// self-loop takes the rest.
struct WorldRow {
  std::vector<markov::MatrixEntry> entries;
  bool clamped = false;
};

WorldRow PerLinkWorldRow(const graph::Subgraph& fragment, const WorldNode& world,
                         double denominator, size_t global_size,
                         WorldLinkWeighting weighting) {
  const size_t n = fragment.NumLocalPages();
  struct Link {
    double inv_out;
    double score;
  };
  std::vector<std::vector<Link>> by_target(n);
  for (size_t e = 0; e < world.NumEntries(); ++e) {
    const ExternalPageInfo info = world.Entry(e);
    for (graph::PageId target : info.targets) {
      const graph::Subgraph::LocalIndex i = fragment.LocalIndexOf(target);
      if (i == graph::Subgraph::kNotLocal) continue;
      by_target[i].push_back({1.0 / static_cast<double>(info.out_degree), info.score});
    }
  }
  const double uniform_share =
      world.NumEntries() > 0 ? 1.0 / static_cast<double>(world.NumEntries()) : 0.0;
  const auto weight = [&](const Link& link) {
    const double assumed = weighting == WorldLinkWeighting::kScoreProportional
                               ? link.score
                               : denominator * uniform_share;
    return link.inv_out * (assumed / denominator);
  };
  double mass = 0;
  for (const auto& links : by_target) {
    for (const Link& link : links) mass += weight(link);
  }
  double dangling_mass = 0;
  for (double score : world.columns().dangling_scores) dangling_mass += score;
  const bool dangling = dangling_mass > 0 && n > 0;
  const double per_page =
      dangling ? (dangling_mass / denominator) / static_cast<double>(global_size) : 0.0;
  if (dangling) mass += per_page * static_cast<double>(n);
  WorldRow row;
  double scale = 1.0;
  if (mass > 1.0) {
    scale = 1.0 / mass;
    row.clamped = true;
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (by_target[i].empty() && !dangling) continue;
    double w = 0;
    for (const Link& link : by_target[i]) w += weight(link) * scale;
    if (dangling) w += per_page * scale;
    row.entries.push_back({i, w});
  }
  const double self_loop = 1.0 - std::min(mass * scale, 1.0);
  if (self_loop > 0) row.entries.push_back({static_cast<uint32_t>(n), self_loop});
  return row;
}

/// Asserts that `system`'s world row and clamp flag equal `expected` bit
/// for bit.
void ExpectWorldRow(const ExtendedGraphSystem& system, const WorldRow& expected) {
  const size_t world_state = system.matrix.NumStates() - 1;
  const auto row = system.matrix.Row(static_cast<uint32_t>(world_state));
  ASSERT_EQ(row.size(), expected.entries.size());
  for (size_t k = 0; k < row.size(); ++k) {
    EXPECT_EQ(row[k].column, expected.entries[k].column) << "entry " << k;
    EXPECT_EQ(row[k].weight, expected.entries[k].weight) << "entry " << k;
  }
  EXPECT_EQ(system.world_row_clamped, expected.clamped);
}

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
      const ExtendedGraphSystem& rescaled = cache.Rescale(c.world, d);
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
  const ExtendedGraphSystem& healthy = cache.Rescale(c.world, 0.95);
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
    const ExtendedGraphSystem& cached = cache.Rescale(c.world, 0.62);
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

TEST(ExtendedSystemCacheTest, WorldRowMatchesPerLinkOracle) {
  for (uint64_t seed = 61; seed <= 66; ++seed) {
    RandomCase c(seed);
    // Dangling mass, and a page (beyond the graph's ids, so external) with
    // one link into the fragment and one outside it, which the projection
    // drops.
    const graph::PageId beyond = static_cast<graph::PageId>(c.global_size);
    FoldDangling(c.world, beyond + 1, 0.003, CombineMode::kTakeMax);
    std::vector<graph::PageId> targets = {c.fragment.GlobalId(1), c.ExternalPage()};
    std::sort(targets.begin(), targets.end());
    FoldEntry(c.world, beyond, 9, 0.011, targets, CombineMode::kTakeMax);
    for (const auto weighting :
         {WorldLinkWeighting::kScoreProportional, WorldLinkWeighting::kUniform}) {
      ExtendedSystemCache cache;
      ExpectWorldRow(cache.Prepare(c.fragment, c.world, 0.7, c.global_size, weighting),
                     PerLinkWorldRow(c.fragment, c.world, 0.7, c.global_size, weighting));
      for (const double d : {0.41, 0.09, 0.93}) {
        ExpectWorldRow(cache.Rescale(c.world, d),
                       PerLinkWorldRow(c.fragment, c.world, d, c.global_size, weighting));
      }
    }
  }
}

TEST(ExtendedSystemCacheTest, ClampedWorldRowMatchesPerLinkOracle) {
  RandomCase c(71);
  const std::vector<graph::PageId> targets = {c.fragment.GlobalId(0)};
  const graph::PageId external = c.ExternalPage();
  FoldEntry(c.world, external, OutDegreeOf(external), 0.9, targets,
            CombineMode::kTakeMax);
  FoldDangling(c.world, external, 0.2, CombineMode::kTakeMax);
  ExtendedSystemCache cache;
  const WorldLinkWeighting weighting = WorldLinkWeighting::kScoreProportional;
  const WorldRow expected =
      PerLinkWorldRow(c.fragment, c.world, 0.05, c.global_size, weighting);
  EXPECT_TRUE(expected.clamped);
  ExpectWorldRow(cache.Prepare(c.fragment, c.world, 0.05, c.global_size, weighting),
                 expected);
}

TEST(ExtendedSystemCacheTest, CachesSharingAThreadStayIndependent) {
  // Every cache on a thread shares one scratch; interleaved calls on two
  // caches must each still equal a fresh build.
  RandomCase a(81);
  RandomCase b(82);
  const WorldLinkWeighting weighting = WorldLinkWeighting::kScoreProportional;
  ExtendedSystemCache cache_a;
  ExtendedSystemCache cache_b;
  cache_a.Prepare(a.fragment, a.world, 0.6, a.global_size, weighting);
  ExpectSystemsIdentical(
      cache_b.Prepare(b.fragment, b.world, 0.5, b.global_size, weighting),
      BuildExtendedSystem(b.fragment, b.world, 0.5, b.global_size));
  ExpectSystemsIdentical(cache_a.Rescale(a.world, 0.3),
                         BuildExtendedSystem(a.fragment, a.world, 0.3, a.global_size));
  const std::vector<graph::PageId> targets = {b.fragment.GlobalId(0)};
  FoldEntry(b.world, b.ExternalPage(), 4, 0.02, targets, CombineMode::kTakeMax);
  cache_b.Prepare(b.fragment, b.world, 0.45, b.global_size, weighting);
  ExpectSystemsIdentical(cache_a.Rescale(a.world, 0.8),
                         BuildExtendedSystem(a.fragment, a.world, 0.8, a.global_size));
  ExpectSystemsIdentical(cache_b.Rescale(b.world, 0.2),
                         BuildExtendedSystem(b.fragment, b.world, 0.2, b.global_size));
}

}  // namespace
}  // namespace core
}  // namespace jxp
