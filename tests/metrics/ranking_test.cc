#include "metrics/ranking.h"

#include <gtest/gtest.h>

namespace jxp {
namespace metrics {
namespace {

TEST(TopKTest, DenseVector) {
  const std::vector<double> scores = {0.1, 0.5, 0.3, 0.5};
  const auto top = TopK(std::span<const double>(scores), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1u);  // Tie broken by smaller id.
  EXPECT_EQ(top[1].first, 3u);
  EXPECT_EQ(top[2].first, 2u);
}

TEST(TopKTest, KLargerThanInput) {
  const std::vector<double> scores = {0.2, 0.1};
  EXPECT_EQ(TopK(std::span<const double>(scores), 10).size(), 2u);
}

TEST(TopKTest, SparseMap) {
  const std::unordered_map<uint32_t, double> scores = {{7, 0.9}, {3, 0.1}, {5, 0.5}};
  const auto top = TopK(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 7u);
  EXPECT_EQ(top[1].first, 5u);
}

std::vector<ScoredItem> MakeRanking(std::initializer_list<uint32_t> ids) {
  std::vector<ScoredItem> r;
  double score = 1.0;
  for (uint32_t id : ids) r.emplace_back(id, score -= 0.01);
  return r;
}

TEST(FootruleTest, IdenticalRankingsAreZero) {
  const auto r = MakeRanking({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(SpearmanFootrule(r, r), 0.0);
}

TEST(FootruleTest, DisjointRankingsAreOne) {
  const auto r1 = MakeRanking({1, 2, 3});
  const auto r2 = MakeRanking({4, 5, 6});
  EXPECT_DOUBLE_EQ(SpearmanFootrule(r1, r2), 1.0);
}

TEST(FootruleTest, SwapOfNeighborsIsSmall) {
  const auto r1 = MakeRanking({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const auto r2 = MakeRanking({2, 1, 3, 4, 5, 6, 7, 8, 9, 10});
  // Sum |pos diff| = 2, normalizer = 10*11 = 110.
  EXPECT_NEAR(SpearmanFootrule(r1, r2), 2.0 / 110, 1e-12);
}

TEST(FootruleTest, MissingPageTakesPositionKPlusOne) {
  const auto r1 = MakeRanking({1, 2});
  const auto r2 = MakeRanking({1, 3});
  // Page 2: |2 - 3| = 1; page 3: |3 - 2| = 1; total 2 over k(k+1) = 6.
  EXPECT_NEAR(SpearmanFootrule(r1, r2), 2.0 / 6, 1e-12);
}

TEST(FootruleTest, SymmetricInArguments) {
  const auto r1 = MakeRanking({1, 2, 3, 9});
  const auto r2 = MakeRanking({3, 1, 7, 2});
  EXPECT_DOUBLE_EQ(SpearmanFootrule(r1, r2), SpearmanFootrule(r2, r1));
}

TEST(FootruleTest, EmptyRankings) {
  const std::vector<ScoredItem> empty;
  EXPECT_DOUBLE_EQ(SpearmanFootrule(empty, empty), 0.0);
}

TEST(PrecisionTest, Basics) {
  const std::vector<uint32_t> retrieved = {1, 2, 3, 4, 5};
  const std::unordered_set<uint32_t> relevant = {2, 4, 9};
  EXPECT_DOUBLE_EQ(PrecisionAtK(retrieved, relevant, 5), 0.4);
  EXPECT_DOUBLE_EQ(PrecisionAtK(retrieved, relevant, 2), 0.5);
}

TEST(PrecisionTest, FewerRetrievedThanK) {
  const std::vector<uint32_t> retrieved = {2};
  const std::unordered_set<uint32_t> relevant = {2};
  EXPECT_DOUBLE_EQ(PrecisionAtK(retrieved, relevant, 10), 1.0);
}

TEST(PrecisionTest, EmptyRetrievedIsZero) {
  const std::vector<uint32_t> retrieved;
  EXPECT_DOUBLE_EQ(PrecisionAtK(retrieved, {1}, 10), 0.0);
}

}  // namespace
}  // namespace metrics
}  // namespace jxp
