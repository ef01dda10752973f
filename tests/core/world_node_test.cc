#include "core/world_node.h"

#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "testing/world_folds.h"

namespace jxp {
namespace core {
namespace {

constexpr auto kMax = CombineMode::kTakeMax;
constexpr auto kAvg = CombineMode::kAverage;

std::vector<graph::PageId> TargetsOf(const WorldNode& w, graph::PageId page) {
  const auto info = w.Find(page);
  if (!info.has_value()) return {};
  return {info->targets.begin(), info->targets.end()};
}

uint64_t OutDegreeConflicts() {
  for (const auto& counter : obs::MetricsRegistry::Global().Snapshot().counters) {
    if (counter.name == "jxp.world.out_degree_conflicts") return counter.value;
  }
  return 0;
}

TEST(WorldNodeTest, FirstObservationStoresEverything) {
  WorldNode w;
  const std::vector<graph::PageId> targets = {3, 5};
  FoldEntry(w, 10, 4, 0.2, targets, kMax);
  ASSERT_EQ(w.NumEntries(), 1u);
  const auto info = w.Find(10);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->page, 10u);
  EXPECT_EQ(info->out_degree, 4u);
  EXPECT_DOUBLE_EQ(info->score, 0.2);
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{3, 5}));
  EXPECT_EQ(w.NumLinks(), 2u);
}

TEST(WorldNodeTest, TakeMaxKeepsLargerScore) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  FoldEntry(w, 10, 2, 0.3, t, kMax);
  FoldEntry(w, 10, 2, 0.1, t, kMax);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.3);
  FoldEntry(w, 10, 2, 0.5, t, kMax);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.5);
}

TEST(WorldNodeTest, AverageCombines) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  FoldEntry(w, 10, 2, 0.4, t, kAvg);
  FoldEntry(w, 10, 2, 0.2, t, kAvg);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.3);
}

TEST(WorldNodeTest, TargetListsUnion) {
  WorldNode w;
  const std::vector<graph::PageId> t1 = {1, 3};
  const std::vector<graph::PageId> t2 = {2, 3};
  FoldEntry(w, 10, 5, 0.1, t1, kMax);
  FoldEntry(w, 10, 5, 0.1, t2, kMax);
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{1, 2, 3}));
}

TEST(WorldNodeTest, DanglingScores) {
  WorldNode w;
  FoldDangling(w, 7, 0.1, kMax);
  FoldDangling(w, 8, 0.2, kMax);
  FoldDangling(w, 7, 0.05, kMax);  // Smaller: ignored.
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.3);
  EXPECT_EQ(w.FindDangling(7), 0.1);
  EXPECT_FALSE(w.FindDangling(9).has_value());
}

TEST(WorldNodeTest, EraseRemovesBothKinds) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  FoldEntry(w, 10, 2, 0.3, t, kMax);
  FoldEntry(w, 12, 2, 0.3, t, kMax);
  FoldDangling(w, 11, 0.2, kMax);
  w.EraseIf([](graph::PageId page) { return page == 10 || page == 11; });
  EXPECT_EQ(w.NumEntries(), 1u);
  EXPECT_FALSE(w.Find(10).has_value());
  EXPECT_EQ(TargetsOf(w, 12), (std::vector<graph::PageId>{1}));
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.0);
}

TEST(WorldNodeTest, FilterTargetsDropsEmptyEntries) {
  WorldNode w;
  const std::vector<graph::PageId> t1 = {1, 2};
  const std::vector<graph::PageId> t2 = {3};
  const std::vector<graph::PageId> t3 = {2, 3};
  FoldEntry(w, 10, 4, 0.1, t1, kMax);
  FoldEntry(w, 11, 4, 0.1, t2, kMax);
  FoldEntry(w, 12, 4, 0.1, t3, kMax);
  w.FilterTargets([](graph::PageId t) { return t <= 2; });
  EXPECT_TRUE(w.Find(10).has_value());
  EXPECT_FALSE(w.Find(11).has_value());
  EXPECT_EQ(TargetsOf(w, 10), (std::vector<graph::PageId>{1, 2}));
  EXPECT_EQ(TargetsOf(w, 12), (std::vector<graph::PageId>{2}));
  EXPECT_EQ(w.NumLinks(), 3u);
}

TEST(WorldNodeTest, ScaleScores) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  FoldEntry(w, 10, 2, 0.4, t, kMax);
  FoldDangling(w, 11, 0.2, kMax);
  w.ScaleScores(0.5);
  EXPECT_DOUBLE_EQ(w.Find(10)->score, 0.2);
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.1);
}

TEST(WorldNodeTest, WireBytes) {
  WorldNode w;
  const std::vector<graph::PageId> t = {1, 2, 3};
  FoldEntry(w, 10, 4, 0.1, t, kMax);
  FoldDangling(w, 11, 0.2, kMax);
  EXPECT_DOUBLE_EQ(w.WireBytes(), 20 + 3 * 8 + 16);
}

TEST(WorldNodeTest, StoreStaysSortedByPage) {
  WorldNode w;
  for (graph::PageId page : {40u, 10u, 30u, 20u}) {
    const std::vector<graph::PageId> t = {page + 1};
    FoldEntry(w, page, 3, 0.1, t, kMax);
    FoldDangling(w, page + 2, 0.1, kMax);
  }
  EXPECT_EQ(w.columns().pages, (std::vector<graph::PageId>{10, 20, 30, 40}));
  EXPECT_EQ(w.columns().targets, (std::vector<graph::PageId>{11, 21, 31, 41}));
  EXPECT_EQ(w.columns().dangling_pages, (std::vector<graph::PageId>{12, 22, 32, 42}));
}

TEST(WorldNodeTest, MergeFoldsASortedBatch) {
  WorldNode w;
  const std::vector<graph::PageId> a = {1, 2};
  const std::vector<graph::PageId> b = {3};
  w.Append(10, 4, 0.2, a);
  w.Append(30, 2, 0.1, b);
  w.AppendDangling(5, 0.1);

  WorldNode batch;
  batch.Append(20, 1, 0.3, b);
  batch.Append(30, 2, 0.4, a);
  batch.AppendDangling(5, 0.3);
  batch.AppendDangling(6, 0.2);
  w.Merge(std::move(batch), kMax);

  EXPECT_EQ(w.columns().pages, (std::vector<graph::PageId>{10, 20, 30}));
  EXPECT_EQ(TargetsOf(w, 20), (std::vector<graph::PageId>{3}));
  EXPECT_EQ(TargetsOf(w, 30), (std::vector<graph::PageId>{1, 2, 3}));
  EXPECT_EQ(w.Find(30)->out_degree, 3u);  // Raised to the target count.
  EXPECT_DOUBLE_EQ(w.Find(30)->score, 0.4);
  EXPECT_DOUBLE_EQ(w.TotalDanglingScore(), 0.5);
}

TEST(WorldNodeTest, MergeLeavesExactSizeColumns) {
  // Columns grown by Append carry spare capacity; the merge's union is
  // copied back at exact size, however large the node was before.
  WorldNode w;
  for (graph::PageId page = 100; page < 140; ++page) {
    const std::vector<graph::PageId> t = {page % 7, page % 7 + 10};
    w.Append(page, 4, 0.01, t);
    w.AppendDangling(page + 1000, 0.001);
  }
  WorldNode batch;
  const std::vector<graph::PageId> t = {3};
  batch.Append(50, 2, 0.2, t);
  batch.Append(120, 4, 0.3, t);
  batch.AppendDangling(1120, 0.01);
  batch.AppendDangling(2000, 0.02);
  w.Merge(std::move(batch), kMax);

  const wire::WorldColumns& c = w.columns();
  EXPECT_EQ(c.pages.size(), 41u);
  EXPECT_EQ(c.dangling_pages.size(), 41u);
  EXPECT_EQ(c.pages.capacity(), c.pages.size());
  EXPECT_EQ(c.out_degrees.capacity(), c.out_degrees.size());
  EXPECT_EQ(c.scores.capacity(), c.scores.size());
  EXPECT_EQ(c.target_offsets.capacity(), c.target_offsets.size());
  EXPECT_EQ(c.targets.capacity(), c.targets.size());
  EXPECT_EQ(c.dangling_pages.capacity(), c.dangling_pages.size());
  EXPECT_EQ(c.dangling_scores.capacity(), c.dangling_scores.size());
}

TEST(WorldNodeTest, ConflictingOutDegreesResolveToTheLarger) {
  const obs::ScopedEnable telemetry(true);
  const uint64_t conflicts_before = OutDegreeConflicts();
  WorldNode w;
  const std::vector<graph::PageId> t = {1};
  FoldEntry(w, 10, 2, 0.3, t, kMax);
  FoldEntry(w, 10, 5, 0.1, t, kMax);  // Must not abort the receiver.
  EXPECT_EQ(w.Find(10)->out_degree, 5u);
  FoldEntry(w, 10, 3, 0.1, t, kMax);
  EXPECT_EQ(w.Find(10)->out_degree, 5u);
  EXPECT_EQ(OutDegreeConflicts() - conflicts_before, 2u);
}

}  // namespace
}  // namespace core
}  // namespace jxp
