// Property test of the page-sorted world node: its content, and everything
// computed from it, must not depend on the order knowledge arrived in. The
// same observations folded in shuffled orders, and the same state reloaded
// through state_io, must give bit-identical world nodes, extended systems,
// checkpoint files and local scores after a meeting.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/extended_graph.h"
#include "core/jxp_peer.h"
#include "core/meeting_wire.h"
#include "core/state_io.h"
#include "core/world_node.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "proptest.h"
#include "testing/world_folds.h"

namespace jxp {
namespace proptest {
namespace {

/// One case: sizes only; the graph, fragment and observations derive from
/// `seed`.
struct OrderCase {
  uint64_t seed = 0;
  size_t num_nodes = 200;
  size_t num_local = 40;
  size_t num_observations = 120;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " nodes=" << num_nodes << " local=" << num_local
       << " observations=" << num_observations;
    return os.str();
  }

  std::vector<OrderCase> Shrink() const {
    std::vector<OrderCase> candidates;
    if (num_observations > 2) {
      OrderCase c = *this;
      c.num_observations /= 2;
      candidates.push_back(c);
    }
    if (num_local > 4) {
      OrderCase c = *this;
      c.num_local /= 2;
      candidates.push_back(c);
    }
    return candidates;
  }
};

OrderCase GenerateOrderCase(uint64_t seed) {
  OrderCase c;
  c.seed = seed;
  Random rng(seed ^ 0x0dde7ULL);
  c.num_nodes = 80 + rng.NextBounded(220);             // 80..299
  c.num_local = 4 + rng.NextBounded(c.num_nodes / 3);  // At most a third.
  c.num_observations = 1 + rng.NextBounded(300);
  return c;
}

/// One report about an external page: an in-link entry or a dangling page.
struct Observation {
  graph::PageId page = 0;
  uint32_t out_degree = 0;  // 0: dangling.
  double score = 0;
  std::vector<graph::PageId> targets;
};

struct OrderWorld {
  graph::Graph graph;
  graph::Subgraph fragment;
  std::vector<Observation> observations;
};

/// Repeated reports of one page (different scores, target subsets and —
/// for liars — out-degrees) are what make the fold order matter.
OrderWorld BuildOrderWorld(const OrderCase& c) {
  OrderWorld w;
  Random rng(c.seed ^ 0x5eed0dde7ULL);
  w.graph = graph::BarabasiAlbert(c.num_nodes, 3, rng);
  std::vector<graph::PageId> local;
  for (size_t index : rng.SampleWithoutReplacement(c.num_nodes, c.num_local)) {
    local.push_back(static_cast<graph::PageId>(index));
  }
  w.fragment = graph::Subgraph::Induce(w.graph, local);
  const auto pages = w.fragment.Pages();
  for (size_t i = 0; i < c.num_observations; ++i) {
    Observation o;
    do {
      o.page = static_cast<graph::PageId>(rng.NextBounded(c.num_nodes));
    } while (w.fragment.Contains(o.page));
    o.score = rng.NextDouble() * 1e-3;
    if (rng.NextBool(0.15)) {
      w.observations.push_back(o);
      continue;
    }
    const size_t num_targets = 1 + rng.NextBounded(std::min<size_t>(4, pages.size()));
    for (size_t index : rng.SampleWithoutReplacement(pages.size(), num_targets)) {
      o.targets.push_back(pages[index]);
    }
    std::sort(o.targets.begin(), o.targets.end());
    o.out_degree = static_cast<uint32_t>(num_targets + rng.NextBounded(6));
    w.observations.push_back(o);
  }
  return w;
}

/// Folds `observations` in the given order (take-max: commutative per
/// page, so every order must agree).
core::WorldNode Fold(const std::vector<Observation>& observations) {
  core::WorldNode world;
  for (const Observation& o : observations) {
    if (o.out_degree == 0) {
      core::FoldDangling(world, o.page, o.score, core::CombineMode::kTakeMax);
    } else {
      core::FoldEntry(world, o.page, o.out_degree, o.score, o.targets,
                      core::CombineMode::kTakeMax);
    }
  }
  return world;
}

/// Folds `observations` as sorted batches of at most `batch` entries each.
core::WorldNode FoldInBatches(std::vector<Observation> observations, size_t batch) {
  core::WorldNode world;
  for (size_t begin = 0; begin < observations.size(); begin += batch) {
    const size_t end = std::min(begin + batch, observations.size());
    const auto first = observations.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = observations.begin() + static_cast<ptrdiff_t>(end);
    std::stable_sort(first, last, [](const Observation& a, const Observation& b) {
      return a.page < b.page;
    });
    core::WorldNode sorted;
    for (auto it = first; it != last; ++it) {
      // A batch holds each page at most once; later repeats fold singly.
      const auto& c = sorted.columns();
      if (it->out_degree == 0) {
        if (c.dangling_pages.empty() || c.dangling_pages.back() < it->page) {
          sorted.AppendDangling(it->page, it->score);
        } else {
          core::FoldDangling(world, it->page, it->score, core::CombineMode::kTakeMax);
        }
      } else if (c.pages.empty() || c.pages.back() < it->page) {
        sorted.Append(it->page, it->out_degree, it->score, it->targets);
      } else {
        core::FoldEntry(world, it->page, it->out_degree, it->score, it->targets,
                        core::CombineMode::kTakeMax);
      }
    }
    world.Merge(std::move(sorted), core::CombineMode::kTakeMax);
  }
  return world;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Nullopt when the two systems are bit-identical.
CheckResult CompareSystems(const core::ExtendedGraphSystem& a,
                           const core::ExtendedGraphSystem& b) {
  if (a.matrix.NumStates() != b.matrix.NumStates()) return "state counts differ";
  for (uint32_t i = 0; i < a.matrix.NumStates(); ++i) {
    const auto ra = a.matrix.Row(i);
    const auto rb = b.matrix.Row(i);
    if (ra.size() != rb.size()) return "row " + std::to_string(i) + " sizes differ";
    for (size_t k = 0; k < ra.size(); ++k) {
      if (ra[k].column != rb[k].column || !SameBits(ra[k].weight, rb[k].weight)) {
        return "row " + std::to_string(i) + " entry " + std::to_string(k) + " differs";
      }
    }
  }
  if (a.teleport != b.teleport || a.world_row_clamped != b.world_row_clamped) {
    return "teleport or clamp flag differs";
  }
  return std::nullopt;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

CheckResult CheckOrderIndependence(const OrderCase& c) {
  const OrderWorld w = BuildOrderWorld(c);
  std::vector<Observation> shuffled = w.observations;
  Random order(c.seed ^ 0x5407f1eULL);
  order.Shuffle(shuffled);
  const std::vector<Observation> reversed(w.observations.rbegin(), w.observations.rend());

  const std::vector<core::WorldNode> worlds = {
      Fold(w.observations), Fold(shuffled), Fold(reversed),
      FoldInBatches(shuffled, 1 + c.num_observations / 4)};
  for (size_t k = 1; k < worlds.size(); ++k) {
    if (!(worlds[k].columns() == worlds[0].columns())) {
      return "world content depends on fold order (variant " + std::to_string(k) + ")";
    }
  }

  // Peers restored over each world, plus one reloaded from a checkpoint of
  // the first: same file, same system, same scores after a meeting.
  const size_t n = w.fragment.NumLocalPages();
  const size_t global = c.num_nodes;
  const double local_score = 0.5 / static_cast<double>(global);
  const std::vector<double> scores(n, local_score);
  const double world_score = 1.0 - local_score * static_cast<double>(n);
  core::JxpOptions options;
  options.wire_mode = core::MeetingWireMode::kMeasured;
  const std::string path = ::testing::TempDir() + "world_order.jxp";
  std::vector<core::JxpPeer> peers;
  std::vector<std::string> files;
  for (const core::WorldNode& world : worlds) {
    peers.emplace_back(0, w.fragment, global, options, scores, world, world_score);
    if (!core::SavePeerState(peers.back(), path).ok()) return "save failed";
    files.push_back(ReadFile(path));
    if (files.back() != files[0]) return "checkpoint bytes depend on fold order";
  }
  auto reloaded = core::LoadPeerState(path, options);
  std::remove(path.c_str());
  if (!reloaded.ok()) return "reload failed: " + reloaded.status().ToString();
  peers.push_back(std::move(reloaded).value());

  const core::ExtendedGraphSystem reference = core::BuildExtendedSystem(
      peers[0].fragment(), peers[0].world_node(), world_score, global);
  for (size_t k = 1; k < peers.size(); ++k) {
    const core::ExtendedGraphSystem system = core::BuildExtendedSystem(
        peers[k].fragment(), peers[k].world_node(), peers[k].world_score(), global);
    if (CheckResult diff = CompareSystems(reference, system)) {
      return "extended system of peer " + std::to_string(k) + ": " + *diff;
    }
  }

  // One meeting's merge + solve on each peer.
  std::vector<graph::PageId> partner_pages;
  for (graph::PageId p = 0; p < c.num_nodes && partner_pages.size() < n; ++p) {
    if (!w.fragment.Contains(p)) partner_pages.push_back(p);
  }
  core::JxpPeer partner(1, graph::Subgraph::Induce(w.graph, partner_pages), global,
                        options);
  const std::vector<uint8_t> message = partner.EncodeMeetingBytes();
  for (core::JxpPeer& peer : peers) {
    if (!peer.ApplyMeetingBytes(message).applied) return "meeting did not apply";
  }
  for (size_t k = 1; k < peers.size(); ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!SameBits(peers[0].local_scores()[i], peers[k].local_scores()[i])) {
        return "local score " + std::to_string(i) + " of peer " + std::to_string(k);
      }
    }
    if (!SameBits(peers[0].world_score(), peers[k].world_score())) {
      return "world score of peer " + std::to_string(k);
    }
  }
  return std::nullopt;
}

TEST(WorldOrderProperty, ObservationOrderAndReloadDoNotChangeResults) {
  ForAll<OrderCase>(0x0dde7001, 30, GenerateOrderCase, CheckOrderIndependence);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
