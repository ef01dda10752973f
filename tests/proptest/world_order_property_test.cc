// Property tests of the page-sorted world node: its content, and everything
// computed from it, must not depend on the order knowledge arrived in. The
// same observations folded in shuffled orders, and the same state reloaded
// through state_io, must give bit-identical world nodes, extended systems,
// checkpoint files and local scores after a meeting. And the light-weight
// merge's in-place fold of a message must leave exactly the world node, and
// count exactly the out-degree conflicts, that WorldNode::Merge of the
// message's whole filtered batch does.

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
#include "obs/metrics.h"
#include "obs/telemetry.h"
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

uint64_t CounterValue(const std::string& name) {
  for (const auto& counter : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

/// The registry counters a meeting's world fold moves.
struct FoldCounters {
  uint64_t conflicts = 0;
  uint64_t unchanged = 0;
  uint64_t in_place = 0;
  uint64_t structural = 0;

  static FoldCounters Read() {
    return {CounterValue("jxp.world.out_degree_conflicts"),
            CounterValue("jxp.world.reports_unchanged"),
            CounterValue("jxp.world.reports_in_place"),
            CounterValue("jxp.world.reports_structural")};
  }
  FoldCounters operator-(const FoldCounters& o) const {
    return {conflicts - o.conflicts, unchanged - o.unchanged, in_place - o.in_place,
            structural - o.structural};
  }
};

/// What the in-place property exercised over all its cases.
FoldCounters in_place_coverage;

/// A crafted message: a page table and world knowledge whose reports hit
/// the receiver's world node with equal, lower and higher scores and
/// out-degrees, subsets of its targets, new targets, targets outside its
/// fragment only, dangling pages, and (for a forged message) one page both
/// in the page table and among the world entries.
struct CraftedMessage {
  std::vector<graph::PageId> pages;
  std::vector<uint64_t> successor_offsets = {0};
  std::vector<graph::PageId> successors;
  std::vector<double> scores;
  core::WorldNode world;
};

CraftedMessage CraftMessage(const OrderWorld& w, const core::WorldNode& known, Random& rng) {
  const auto local = w.fragment.Pages();
  const wire::WorldColumns& k = known.columns();
  graph::PageId next_fresh = static_cast<graph::PageId>(w.graph.NumNodes());
  // Pages outside the graph: never local, never known.
  const auto fresh = [&next_fresh, &rng] {
    next_fresh += 1 + static_cast<graph::PageId>(rng.NextBounded(3));
    return next_fresh;
  };
  // Reported page candidates: known entries, known dangling pages, local
  // pages and unknown ones.
  std::vector<graph::PageId> candidates(k.pages.begin(), k.pages.end());
  candidates.insert(candidates.end(), k.dangling_pages.begin(), k.dangling_pages.end());
  for (size_t i = 0; i < 3 && i < local.size(); ++i) {
    candidates.push_back(local[rng.NextBounded(local.size())]);
  }
  for (int i = 0; i < 8; ++i) {
    candidates.push_back(static_cast<graph::PageId>(rng.NextBounded(w.graph.NumNodes())));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  const bool forged = rng.NextBool(0.25);
  const size_t forged_at = rng.NextBounded(candidates.size());

  CraftedMessage m;
  std::vector<graph::PageId> targets;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const graph::PageId page = candidates[i];
    const auto entry = known.Find(page);
    const auto dangling = known.FindDangling(page);
    double base = static_cast<float>(rng.NextDouble() * 1e-3);
    if (entry.has_value()) base = entry->score;
    if (dangling.has_value()) base = *dangling;
    // Float-exact, so the wire carries it unrounded: equal, lower, higher.
    double factor = 1.0;
    if (!rng.NextBool(0.4)) factor = rng.NextBool(0.5) ? 0.5 : 2.0;
    const double score = base * factor;
    // Targets in the fragment: a subset of the known ones, sometimes with a
    // new one; or none (the report reaches only pages outside it).
    targets.clear();
    if (entry.has_value()) {
      for (graph::PageId t : entry->targets) {
        if (rng.NextBool(0.6)) targets.push_back(t);
      }
    }
    if (targets.empty() || rng.NextBool(0.25)) {
      if (rng.NextBool(0.8)) targets.push_back(local[rng.NextBounded(local.size())]);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    const uint32_t known_degree = entry.has_value() ? entry->out_degree : 3;
    const uint32_t degree = std::max<uint32_t>(
        static_cast<uint32_t>(targets.size()),
        known_degree + static_cast<uint32_t>(rng.NextBounded(3)) - 1);
    const bool dangling_report = rng.NextBool(0.1) || (targets.empty() && degree == 0);
    const bool in_table = (forged && i == forged_at) || rng.NextBool(0.5);
    const bool in_world = (forged && i == forged_at) || !in_table;
    if (in_table) {
      // The page-table report: its successors are its whole out-degree,
      // the ones outside the fragment fresh pages.
      std::vector<graph::PageId> successors = targets;
      while (!dangling_report && successors.size() < std::max<uint32_t>(degree, 1)) {
        successors.push_back(fresh());
      }
      if (dangling_report) successors.clear();
      std::sort(successors.begin(), successors.end());
      m.pages.push_back(page);
      m.scores.push_back(score);
      m.successors.insert(m.successors.end(), successors.begin(), successors.end());
      m.successor_offsets.push_back(m.successors.size());
    }
    if (in_world) {
      if (dangling_report) {
        m.world.AppendDangling(page, score);
      } else {
        // A world entry's targets are the sender's pages it links to.
        std::vector<graph::PageId> reported = targets;
        if (reported.empty()) reported.push_back(fresh());
        std::sort(reported.begin(), reported.end());
        m.world.Append(page, std::max<uint32_t>(degree, static_cast<uint32_t>(reported.size())),
                       score, reported);
      }
    }
  }
  return m;
}

/// The reference: every report the message makes about a page outside
/// `fragment` that links into it, as one sorted batch per section of the
/// message, merged into the other and then into `world` with Merge.
core::WorldNode MergeFilteredBatch(const graph::Subgraph& fragment, core::WorldNode world,
                                   const core::DecodedMeetingMessage& message,
                                   uint64_t& reports) {
  std::vector<graph::PageId> targets;
  const auto filtered = [&](std::span<const graph::PageId> successors) {
    targets.clear();
    for (graph::PageId t : successors) {
      if (fragment.Contains(t)) targets.push_back(t);
    }
    return !targets.empty();
  };
  const wire::PageTableColumns& table = message.page_table;
  core::WorldNode hosted;
  for (size_t i = 0; i < table.pages.size(); ++i) {
    if (fragment.Contains(table.pages[i])) continue;
    const auto successors = table.View().Successors(i);
    if (successors.empty()) {
      hosted.AppendDangling(table.pages[i], table.scores[i]);
      ++reports;
    } else if (filtered(successors)) {
      hosted.Append(table.pages[i], static_cast<uint32_t>(successors.size()),
                    table.scores[i], targets);
      ++reports;
    }
  }
  const wire::WorldColumns& heard = message.world.columns();
  core::WorldNode relayed;
  for (size_t e = 0; e < heard.NumEntries(); ++e) {
    if (fragment.Contains(heard.pages[e]) || !filtered(heard.Targets(e))) continue;
    relayed.Append(heard.pages[e], heard.out_degrees[e], heard.scores[e], targets);
    ++reports;
  }
  for (size_t d = 0; d < heard.dangling_pages.size(); ++d) {
    if (fragment.Contains(heard.dangling_pages[d])) continue;
    relayed.AppendDangling(heard.dangling_pages[d], heard.dangling_scores[d]);
    ++reports;
  }
  hosted.Merge(std::move(relayed), core::CombineMode::kTakeMax);
  world.Merge(std::move(hosted), core::CombineMode::kTakeMax);
  return world;
}

CheckResult CheckInPlaceFoldMatchesMerge(const OrderCase& c) {
  OrderWorld w = BuildOrderWorld(c);
  // Float-exact known scores, so a reported score can equal one exactly.
  for (Observation& o : w.observations) o.score = static_cast<float>(o.score);
  const core::WorldNode known = Fold(w.observations);
  Random rng(c.seed ^ 0x1f01dULL);
  const CraftedMessage crafted = CraftMessage(w, known, rng);
  const graph::PageTableView table{crafted.pages, crafted.successor_offsets,
                                   crafted.successors};
  const std::vector<uint8_t> bytes =
      core::EncodeMeetingMessage(table, crafted.scores, crafted.world);
  const core::DecodedMeetingMessage decoded = core::DecodeMeetingMessage(bytes);
  if (!decoded.error.ok()) return "crafted message did not decode: " + decoded.error.ToString();
  if (decoded.page_table.pages.empty()) return "crafted message has no page table";

  const obs::ScopedEnable telemetry(true);
  uint64_t reports = 0;
  FoldCounters before = FoldCounters::Read();
  const core::WorldNode reference = MergeFilteredBatch(w.fragment, known, decoded, reports);
  const uint64_t reference_conflicts = (FoldCounters::Read() - before).conflicts;

  const size_t n = w.fragment.NumLocalPages();
  const double local_score = 0.5 / static_cast<double>(c.num_nodes);
  core::JxpOptions options;
  options.wire_mode = core::MeetingWireMode::kMeasured;
  core::JxpPeer peer(0, w.fragment, c.num_nodes, options,
                     std::vector<double>(n, local_score), known,
                     1.0 - local_score * static_cast<double>(n));
  before = FoldCounters::Read();
  if (!peer.ApplyMeetingBytes(bytes).applied) return "crafted message did not apply";
  const FoldCounters moved = FoldCounters::Read() - before;

  if (!(peer.world_node().columns() == reference.columns())) {
    return "the in-place fold left a different world node than Merge";
  }
  if (moved.conflicts != reference_conflicts) {
    return "out-degree conflicts: fold " + std::to_string(moved.conflicts) + ", Merge " +
           std::to_string(reference_conflicts);
  }
  if (moved.unchanged + moved.in_place + moved.structural != reports) {
    return "the fold tallied " +
           std::to_string(moved.unchanged + moved.in_place + moved.structural) + " of " +
           std::to_string(reports) + " reports";
  }
  in_place_coverage.unchanged += moved.unchanged;
  in_place_coverage.in_place += moved.in_place;
  in_place_coverage.structural += moved.structural;
  in_place_coverage.conflicts += moved.conflicts;
  return std::nullopt;
}

TEST(WorldOrderProperty, InPlaceFoldMatchesMergeOfTheFilteredBatch) {
  ForAll<OrderCase>(0x1f01d001, 40, GenerateOrderCase, CheckInPlaceFoldMatchesMerge);
  // The cases reached every outcome of the fold.
  EXPECT_GT(in_place_coverage.unchanged, 0u);
  EXPECT_GT(in_place_coverage.in_place, 0u);
  EXPECT_GT(in_place_coverage.structural, 0u);
  EXPECT_GT(in_place_coverage.conflicts, 0u);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
