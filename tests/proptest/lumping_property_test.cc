// Property test of the world node as exact state aggregation (paper §5):
// the world node lumps every page a peer does not hold into one state. When
// it carries the *true* global scores of the external pages, the peer's
// damped extended chain must be exactly the lumped global chain — every
// local page a singleton block, every external page in the world block —
// and its stationary distribution must be the global PageRank on the local
// pages. That is the fixed point Thm 5.4 converges to. markov::AggregateChain
// is the oracle; the dense solver supplies the exact global vector.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "core/world_node.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "markov/dense_solver.h"
#include "markov/power_iteration.h"
#include "markov/state_aggregation.h"
#include "pagerank/pagerank.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

constexpr double kChainTolerance = 1e-12;
constexpr double kScoreTolerance = 1e-10;

/// One case: sizes and rates only; the graph and the fragment derive from
/// `seed`.
struct LumpingCase {
  uint64_t seed = 0;
  size_t num_nodes = 40;
  size_t num_local = 10;  // In [1, num_nodes): the world block is never empty.
  size_t max_out_degree = 4;
  double dangling_fraction = 0.1;
  double damping = 0.85;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " nodes=" << num_nodes << " local=" << num_local
       << " max_out=" << max_out_degree << " dangling=" << dangling_fraction
       << " damping=" << damping;
    return os.str();
  }

  std::vector<LumpingCase> Shrink() const {
    std::vector<LumpingCase> candidates;
    if (num_nodes > 4) {
      LumpingCase c = *this;
      c.num_nodes /= 2;
      c.num_local = std::min(c.num_local, c.num_nodes - 1);
      candidates.push_back(c);
    }
    if (num_local > 1) {
      LumpingCase c = *this;
      c.num_local /= 2;
      candidates.push_back(c);
    }
    if (dangling_fraction > 0) {
      LumpingCase c = *this;
      c.dangling_fraction = 0;
      candidates.push_back(c);
    }
    return candidates;
  }
};

LumpingCase GenerateLumpingCase(uint64_t seed) {
  LumpingCase c;
  c.seed = seed;
  Random rng(seed ^ 0x1a3b1e5ULL);
  c.num_nodes = 2 + rng.NextBounded(79);                // 2..80
  c.num_local = 1 + rng.NextBounded(c.num_nodes - 1);   // 1..num_nodes-1
  c.max_out_degree = 1 + rng.NextBounded(6);            // 1..6
  c.dangling_fraction = 0.3 * rng.NextDouble();
  c.damping = 0.5 + 0.45 * rng.NextDouble();            // [0.5, 0.95)
  return c;
}

struct LumpingWorld {
  graph::Graph graph;
  graph::Subgraph fragment;
};

/// A random directed graph (pages dangle with probability
/// `dangling_fraction`, the others link to 1..max_out_degree random pages)
/// and a random fragment of `num_local` pages.
LumpingWorld BuildLumpingWorld(const LumpingCase& c) {
  Random rng(c.seed ^ 0x5eed1a3bULL);
  graph::GraphBuilder builder(c.num_nodes);
  for (graph::PageId u = 0; u < c.num_nodes; ++u) {
    if (rng.NextBool(c.dangling_fraction)) continue;
    const size_t degree = 1 + rng.NextBounded(c.max_out_degree);
    for (size_t k = 0; k < degree; ++k) {
      builder.AddEdge(u, static_cast<graph::PageId>(rng.NextBounded(c.num_nodes)));
    }
  }
  LumpingWorld w;
  w.graph = builder.Build();
  std::vector<graph::PageId> local;
  for (size_t index : rng.SampleWithoutReplacement(c.num_nodes, c.num_local)) {
    local.push_back(static_cast<graph::PageId>(index));
  }
  w.fragment = graph::Subgraph::Induce(w.graph, std::move(local));
  return w;
}

/// The world node of a peer that knows the true scores `pi` of every
/// external page: each external in-linking page with its out-degree and
/// local targets, and each external dangling page.
core::WorldNode TrueWorldNode(const LumpingWorld& w, const std::vector<double>& pi) {
  core::WorldNode world;
  for (graph::PageId r = 0; r < w.graph.NumNodes(); ++r) {
    if (w.fragment.Contains(r)) continue;
    const auto successors = w.graph.OutNeighbors(r);
    if (successors.empty()) {
      world.AppendDangling(r, pi[r]);
      continue;
    }
    std::vector<graph::PageId> targets;
    for (graph::PageId v : successors) {
      if (w.fragment.Contains(v)) targets.push_back(v);
    }
    if (targets.empty()) continue;  // Its mass stays in the world self-loop.
    std::sort(targets.begin(), targets.end());
    world.Append(r, static_cast<uint32_t>(successors.size()), pi[r], targets);
  }
  return world;
}

CheckResult CheckWorldNodeIsExactAggregation(const LumpingCase& c) {
  const LumpingWorld w = BuildLumpingWorld(c);
  const size_t num_nodes = w.graph.NumNodes();
  const size_t n = w.fragment.NumLocalPages();

  // The global damped chain (dangling pages jump uniformly) and its exact
  // stationary vector.
  const std::vector<double> uniform(num_nodes, 1.0 / static_cast<double>(num_nodes));
  const std::vector<std::vector<double>> global = markov::ToDenseDamped(
      pagerank::BuildLinkMatrix(w.graph), uniform, c.damping);
  const auto pi = markov::ExactStationaryDistribution(global);
  if (!pi.ok()) return "global chain: " + pi.status().ToString();

  // The peer: its fragment plus the true world node, at the true world
  // score alpha_w = 1 - sum of the local scores.
  double local_mass = 0;
  for (graph::PageId p : w.fragment.Pages()) local_mass += pi.value()[p];
  const core::WorldNode world = TrueWorldNode(w, pi.value());
  const core::ExtendedGraphSystem system =
      core::BuildExtendedSystem(w.fragment, world, 1.0 - local_mass, num_nodes);
  const std::vector<std::vector<double>> extended =
      markov::ToDenseDamped(system.matrix, system.teleport, c.damping);

  // Lump the global chain: local page p is block LocalIndexOf(p), every
  // external page is block n (the world state).
  std::vector<uint32_t> block_of(num_nodes, static_cast<uint32_t>(n));
  for (graph::PageId p : w.fragment.Pages()) block_of[p] = w.fragment.LocalIndexOf(p);
  const auto lumped =
      markov::AggregateChain(global, pi.value(), block_of, static_cast<uint32_t>(n + 1));
  if (!lumped.ok()) return "aggregation: " + lumped.status().ToString();

  for (size_t a = 0; a <= n; ++a) {
    for (size_t b = 0; b <= n; ++b) {
      const double expected = lumped.value().transitions[a][b];
      if (std::abs(extended[a][b] - expected) > kChainTolerance) {
        std::ostringstream os;
        os << "extended chain entry (" << a << ", " << b << ") = " << extended[a][b]
           << ", lumped global chain has " << expected << " (world state " << n << ")";
        return os.str();
      }
    }
  }

  markov::PowerIterationOptions options;
  options.damping = c.damping;
  options.tolerance = 1e-14;
  options.max_iterations = 5000;
  const markov::PowerIterationResult local = markov::StationaryDistribution(
      system.matrix, system.teleport, {}, options);
  if (!local.converged) return "local power iteration did not converge";
  for (graph::Subgraph::LocalIndex i = 0; i < n; ++i) {
    const graph::PageId p = w.fragment.GlobalId(i);
    if (std::abs(local.distribution[i] - pi.value()[p]) > kScoreTolerance) {
      std::ostringstream os;
      os << "local score of page " << p << " = " << local.distribution[i]
         << ", global PageRank " << pi.value()[p];
      return os.str();
    }
  }
  return std::nullopt;
}

TEST(LumpingProperty, WorldNodeIsExactAggregation) {
  ForAll<LumpingCase>(0x1a3b1001, 60, GenerateLumpingCase,
                      CheckWorldNodeIsExactAggregation);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
