#include "metrics/summary.h"

#include <gtest/gtest.h>

#include "metrics/error.h"

namespace jxp {
namespace metrics {
namespace {

TEST(SummaryTest, EmptyIsZeros) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
}

TEST(SummaryTest, SingleValue) {
  const std::vector<double> v = {7.0};
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 7);
  EXPECT_DOUBLE_EQ(s.q1, 7);
  EXPECT_DOUBLE_EQ(s.median, 7);
  EXPECT_DOUBLE_EQ(s.q3, 7);
  EXPECT_DOUBLE_EQ(s.max, 7);
}

TEST(SummaryTest, KnownQuartiles) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  const Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_EQ(s.count, 5u);
}

TEST(SummaryTest, UnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Summarize(v).median, 3);
}

TEST(SummaryTest, InterpolatedMedian) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Summarize(v).median, 2.5);
}

TEST(LinearScoreErrorTest, ExactMatchIsZero) {
  const std::vector<ScoredItem> top = {{0, 0.5}, {1, 0.3}};
  const std::unordered_map<uint32_t, double> approx = {{0, 0.5}, {1, 0.3}};
  EXPECT_DOUBLE_EQ(LinearScoreError(top, approx), 0.0);
}

TEST(LinearScoreErrorTest, MissingPagesScoreZero) {
  const std::vector<ScoredItem> top = {{0, 0.5}, {1, 0.3}};
  const std::unordered_map<uint32_t, double> approx = {{0, 0.5}};
  EXPECT_DOUBLE_EQ(LinearScoreError(top, approx), 0.15);
}

TEST(LinearScoreErrorTest, AveragesOverTopK) {
  const std::vector<ScoredItem> top = {{0, 0.6}, {1, 0.4}};
  const std::unordered_map<uint32_t, double> approx = {{0, 0.5}, {1, 0.3}};
  EXPECT_NEAR(LinearScoreError(top, approx), 0.1, 1e-12);
}

}  // namespace
}  // namespace metrics
}  // namespace jxp
