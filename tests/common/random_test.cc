#include "common/random.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace jxp {
namespace {

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, BoundedStaysInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, BoundedIsRoughlyUniform) {
  Random rng(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.NextBounded(kBuckets)]++;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets * 0.1) << "bucket " << b;
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, NextBoolMatchesProbability) {
  Random rng(13);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.NextBool(0.3);
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(RandomTest, ShufflePreservesElements) {
  Random rng(3);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RandomTest, SampleWithoutReplacementDistinct) {
  Random rng(17);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(RandomTest, SampleFullRangeIsPermutation) {
  Random rng(19);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RandomTest, ReseedRestartsStream) {
  Random rng(42);
  const uint64_t first = rng.NextUint64();
  rng.NextUint64();
  rng.Reseed(42);
  EXPECT_EQ(rng.NextUint64(), first);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const uint64_t a = sm.Next();
  const uint64_t b = sm.Next();
  EXPECT_NE(a, b);
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.Next(), a);
  EXPECT_EQ(sm2.Next(), b);
}

}  // namespace
}  // namespace jxp
