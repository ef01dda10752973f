#include "graph/subgraph.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"

namespace jxp {
namespace graph {
namespace {

/// 0 -> {1,2}, 1 -> {2,3}, 2 -> {0}, 3 -> {4}, 4 -> {}.
Graph TestGraph() {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 0);
  builder.AddEdge(3, 4);
  return builder.Build();
}

TEST(SubgraphTest, InduceBasics) {
  const Graph g = TestGraph();
  const Subgraph sg = Subgraph::Induce(g, {2, 0, 1, 2});  // Unsorted + dup.
  EXPECT_EQ(sg.NumLocalPages(), 3u);
  EXPECT_EQ(sg.GlobalId(0), 0u);
  EXPECT_EQ(sg.GlobalId(2), 2u);
  EXPECT_TRUE(sg.Contains(1));
  EXPECT_FALSE(sg.Contains(3));
  EXPECT_EQ(sg.LocalIndexOf(4), Subgraph::kNotLocal);
}

TEST(SubgraphTest, TracksGlobalOutDegreeAndExternalSuccessors) {
  const Graph g = TestGraph();
  const Subgraph sg = Subgraph::Induce(g, {0, 1, 2});
  const Subgraph::LocalIndex i1 = sg.LocalIndexOf(1);
  // Page 1 points at 2 (local) and 3 (external).
  EXPECT_EQ(sg.GlobalOutDegree(i1), 2u);
  EXPECT_EQ(sg.NumExternalSuccessors(i1), 1u);
  ASSERT_EQ(sg.LocalOutNeighbors(i1).size(), 1u);
  EXPECT_EQ(sg.GlobalId(sg.LocalOutNeighbors(i1)[0]), 2u);
}

TEST(SubgraphTest, EdgeCounts) {
  const Graph g = TestGraph();
  const Subgraph sg = Subgraph::Induce(g, {0, 1, 2});
  // Local edges: 0->1, 0->2, 1->2, 2->0. External: 1->3.
  EXPECT_EQ(sg.NumLocalEdges(), 4u);
  EXPECT_EQ(sg.NumExternalOutEdges(), 1u);
}

TEST(SubgraphTest, AllSuccessors) {
  const Graph g = TestGraph();
  const Subgraph sg = Subgraph::Induce(g, {0, 1});
  const std::vector<PageId> successors = sg.AllSuccessors();
  EXPECT_EQ(successors, (std::vector<PageId>{1, 2, 3}));
}

TEST(SubgraphTest, FromKnowledgeMatchesInduce) {
  const Graph g = TestGraph();
  const Subgraph induced = Subgraph::Induce(g, {0, 1, 2});
  const Subgraph built = Subgraph::FromKnowledge(
      {1, 0, 2}, {{3, 2}, {2, 1}, {0}});  // Unsorted pages and successor lists.
  ASSERT_EQ(built.NumLocalPages(), induced.NumLocalPages());
  for (Subgraph::LocalIndex i = 0; i < built.NumLocalPages(); ++i) {
    EXPECT_EQ(built.GlobalId(i), induced.GlobalId(i));
    const auto bs = built.Successors(i);
    const auto is = induced.Successors(i);
    ASSERT_EQ(bs.size(), is.size());
    for (size_t j = 0; j < bs.size(); ++j) EXPECT_EQ(bs[j], is[j]);
  }
}

TEST(SubgraphTest, MergeIsUnionOfKnowledge) {
  const Graph g = TestGraph();
  const Subgraph a = Subgraph::Induce(g, {0, 1});
  const Subgraph b = Subgraph::Induce(g, {1, 2, 3});
  const Subgraph merged = Subgraph::Merge(a, b.Table());
  EXPECT_EQ(merged.NumLocalPages(), 4u);  // {0,1,2,3}
  // The merged fragment equals the induced fragment on the union.
  const Subgraph expected = Subgraph::Induce(g, {0, 1, 2, 3});
  EXPECT_EQ(merged.NumLocalEdges(), expected.NumLocalEdges());
  EXPECT_EQ(merged.NumExternalOutEdges(), expected.NumExternalOutEdges());
  // 3 -> 4 is still external; 1 -> 3 became local.
  const Subgraph::LocalIndex i3 = merged.LocalIndexOf(3);
  EXPECT_EQ(merged.NumExternalSuccessors(i3), 1u);
}

TEST(SubgraphTest, MergeWithSelfIsIdentity) {
  const Graph g = TestGraph();
  const Subgraph a = Subgraph::Induce(g, {0, 1, 2});
  const Subgraph merged = Subgraph::Merge(a, a.Table());
  EXPECT_EQ(merged.NumLocalPages(), a.NumLocalPages());
  EXPECT_EQ(merged.NumLocalEdges(), a.NumLocalEdges());
}

TEST(SubgraphTest, DanglingLocalPage) {
  const Graph g = TestGraph();
  const Subgraph sg = Subgraph::Induce(g, {4});
  EXPECT_EQ(sg.GlobalOutDegree(0), 0u);
  EXPECT_EQ(sg.NumExternalSuccessors(0), 0u);
}

TEST(SubgraphTest, FromKnowledgeKeepsLargestPageId) {
  // 0xFFFFFFFF equals kInvalidPage; it is still a legal page of a fragment,
  // also as its smallest (here: only) page.
  const Subgraph single = Subgraph::FromKnowledge({kInvalidPage}, {{3, 1}});
  ASSERT_EQ(single.NumLocalPages(), 1u);
  EXPECT_EQ(single.GlobalId(0), kInvalidPage);
  EXPECT_EQ(single.LocalIndexOf(kInvalidPage), 0u);
  EXPECT_EQ(single.GlobalOutDegree(0), 2u);

  const Subgraph dup =
      Subgraph::FromKnowledge({kInvalidPage, kInvalidPage}, {{kInvalidPage}, {kInvalidPage}});
  ASSERT_EQ(dup.NumLocalPages(), 1u);
  ASSERT_EQ(dup.LocalOutNeighbors(0).size(), 1u);  // Self-loop stays local.

  const Subgraph mixed = Subgraph::FromKnowledge({kInvalidPage, 0, kInvalidPage}, {{}, {}, {}});
  ASSERT_EQ(mixed.NumLocalPages(), 2u);
  EXPECT_EQ(mixed.GlobalId(1), kInvalidPage);
}

/// LocalIndexOf and Contains must agree with a binary search over Pages()
/// for every id in `probes`.
void ExpectIndexMatchesPages(const Subgraph& sg, const std::vector<PageId>& probes) {
  const auto pages = sg.Pages();
  for (PageId id : probes) {
    const auto it = std::lower_bound(pages.begin(), pages.end(), id);
    const bool present = it != pages.end() && *it == id;
    const Subgraph::LocalIndex expected =
        present ? static_cast<Subgraph::LocalIndex>(it - pages.begin()) : Subgraph::kNotLocal;
    ASSERT_EQ(sg.LocalIndexOf(id), expected) << "id " << id;
    ASSERT_EQ(sg.Contains(id), present) << "id " << id;
  }
}

/// Every page, every successor, each page's neighbours, 0, 0xFFFFFFFF and
/// random (mostly absent) ids.
std::vector<PageId> Probes(const Subgraph& sg, Random& rng) {
  std::vector<PageId> probes = {0, 1, kInvalidPage, kInvalidPage - 1};
  for (PageId p : sg.Pages()) {
    probes.insert(probes.end(), {p, p - 1, p + 1});
  }
  const std::vector<PageId> successors = sg.AllSuccessors();
  probes.insert(probes.end(), successors.begin(), successors.end());
  for (int k = 0; k < 256; ++k) probes.push_back(static_cast<PageId>(rng.NextUint64()));
  return probes;
}

/// A fragment of `n` random pages drawn from the whole 32-bit id space
/// (0 and 0xFFFFFFFF included), each with a few random successors.
Subgraph RandomKnowledge(size_t n, Random& rng) {
  std::vector<PageId> pages;
  std::vector<std::vector<PageId>> successors;
  for (size_t i = 0; i < n; ++i) {
    PageId page = static_cast<PageId>(rng.NextUint64());
    const uint64_t kind = rng.NextBounded(16);
    if (kind == 0) page = 0;
    if (kind == 1) page = kInvalidPage;
    pages.push_back(page);
    // Half the successors are pages of the fragment (local links).
    std::vector<PageId> succ;
    for (uint64_t j = rng.NextBounded(6); j > 0; --j) {
      PageId target = static_cast<PageId>(rng.NextUint64());
      if (rng.NextBool(0.5)) target = pages[rng.NextBounded(pages.size())];
      succ.push_back(target);
    }
    successors.push_back(std::move(succ));
  }
  return Subgraph::FromKnowledge(std::move(pages), std::move(successors));
}

TEST(SubgraphTest, PageIndexMatchesBinarySearch) {
  Random rng(2024);
  const Graph g = BarabasiAlbert(3000, 4, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const double fraction = 0.02 + 0.05 * trial;
    std::vector<PageId> a_pages;
    std::vector<PageId> b_pages;
    for (PageId p = 0; p < g.NumNodes(); ++p) {
      if (rng.NextBool(fraction)) a_pages.push_back(p);
      if (rng.NextBool(fraction)) b_pages.push_back(p);
    }
    const Subgraph induced = Subgraph::Induce(g, a_pages);
    ExpectIndexMatchesPages(induced, Probes(induced, rng));
    const Subgraph merged =
        Subgraph::Merge(induced, Subgraph::Induce(g, b_pages).Table());
    ExpectIndexMatchesPages(merged, Probes(merged, rng));

    const Subgraph known = RandomKnowledge(1 + rng.NextBounded(2000), rng);
    ExpectIndexMatchesPages(known, Probes(known, rng));
    const Subgraph known_merged =
        Subgraph::Merge(known, RandomKnowledge(500, rng).Table());
    ExpectIndexMatchesPages(known_merged, Probes(known_merged, rng));

    // A bare page table (a decoded message's) indexed by the merge.
    const Subgraph table = Subgraph::Merge(Subgraph(), known.Table());
    ExpectIndexMatchesPages(table, Probes(table, rng));
    EXPECT_EQ(table.NumLocalEdges(), known.NumLocalEdges());
  }
}

TEST(SubgraphTest, PageIndexHandlesDenseIdRangesAtBothEnds) {
  // Pages packed at the bottom and the top of the id space, with gaps: the
  // membership test must answer for ids just outside, inside and between.
  Random rng(11);
  for (const PageId base : {PageId{0}, PageId{1000}, kInvalidPage - 300}) {
    std::vector<PageId> pages;
    std::vector<std::vector<PageId>> successors;
    for (PageId offset = 0; offset <= 300; ++offset) {
      if (rng.NextBool(0.7)) continue;
      pages.push_back(base + offset);
      successors.push_back({base + 300 - offset, kInvalidPage, 0});
    }
    const Subgraph sg = Subgraph::FromKnowledge(pages, std::move(successors));
    std::vector<PageId> probes = Probes(sg, rng);
    for (PageId offset = 0; offset <= 301; ++offset) probes.push_back(base + offset);
    probes.push_back(base - 1);
    ExpectIndexMatchesPages(sg, probes);
  }
}

TEST(SubgraphTest, PageIndexHandlesCollidingIds) {
  // Ids that share all their low bits: multiples of large powers of two,
  // and the same offset from the top of the id space.
  Random rng(7);
  for (int shift : {12, 16, 20, 24, 28, 31}) {
    std::vector<PageId> pages;
    for (uint64_t k = 0; (k << shift) <= kInvalidPage && pages.size() < 4096; ++k) {
      pages.push_back(static_cast<PageId>(k << shift));
      pages.push_back(static_cast<PageId>(kInvalidPage - (k << shift)));
    }
    std::vector<std::vector<PageId>> successors(pages.size());
    for (size_t i = 0; i < pages.size(); ++i) {
      successors[i] = {pages[(i + 1) % pages.size()], pages[(i * 7) % pages.size()]};
    }
    const Subgraph sg = Subgraph::FromKnowledge(pages, std::move(successors));
    std::vector<PageId> probes = Probes(sg, rng);
    for (uint64_t k = 0; k < 64; ++k) {
      probes.push_back(static_cast<PageId>((k << shift) + 1));
      probes.push_back(static_cast<PageId>(k << (shift - 1)));
    }
    ExpectIndexMatchesPages(sg, probes);
    // Every successor is a local page, so the local CSR keeps every edge.
    EXPECT_EQ(sg.NumExternalOutEdges(), 0u);
  }
}

TEST(SubgraphTest, DefaultConstructedIndexIsEmpty) {
  const Subgraph sg;
  EXPECT_EQ(sg.NumLocalPages(), 0u);
  for (PageId id : {PageId{0}, PageId{1}, PageId{12345}, kInvalidPage}) {
    EXPECT_EQ(sg.LocalIndexOf(id), Subgraph::kNotLocal);
    EXPECT_FALSE(sg.Contains(id));
  }
}

}  // namespace
}  // namespace graph
}  // namespace jxp
