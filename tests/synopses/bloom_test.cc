#include "synopses/bloom.h"

#include <gtest/gtest.h>

namespace jxp {
namespace synopses {
namespace {

TEST(BloomFilterTest, CardinalityEstimate) {
  BloomFilter filter(16384, 4);
  for (uint64_t k = 0; k < 1000; ++k) filter.Add(k);
  EXPECT_NEAR(filter.EstimateCardinality(), 1000, 100);
}

TEST(BloomFilterTest, UnionAndOverlap) {
  BloomFilter a(16384, 4);
  BloomFilter b(16384, 4);
  for (uint64_t k = 0; k < 600; ++k) a.Add(k);
  for (uint64_t k = 300; k < 900; ++k) b.Add(k);
  EXPECT_NEAR(EstimateOverlap(a, b), 300, 90);
  EXPECT_NEAR(EstimateContainment(a, b), 0.5, 0.15);
}

TEST(BloomFilterTest, SaturatedFilterClamps) {
  BloomFilter tiny(64, 2);
  for (uint64_t k = 0; k < 10000; ++k) tiny.Add(k);
  EXPECT_LE(tiny.EstimateCardinality(), 64.0);
}

TEST(BloomFilterTest, WireSize) {
  BloomFilter filter(1024, 3);
  EXPECT_EQ(filter.SizeBytes(), 1024u / 8);
}

}  // namespace
}  // namespace synopses
}  // namespace jxp
