#include "common/hash.h"

#include <set>

#include <gtest/gtest.h>

namespace jxp {
namespace {

TEST(HashTest, Mix64IsDeterministic) { EXPECT_EQ(Mix64(42), Mix64(42)); }

TEST(HashTest, Mix64SpreadsNearbyKeys) {
  std::set<uint64_t> outputs;
  for (uint64_t k = 0; k < 1000; ++k) outputs.insert(Mix64(k));
  EXPECT_EQ(outputs.size(), 1000u);
  // High bits should differ between consecutive keys most of the time.
  int same_top_byte = 0;
  for (uint64_t k = 0; k + 1 < 1000; ++k) {
    if ((Mix64(k) >> 56) == (Mix64(k + 1) >> 56)) ++same_top_byte;
  }
  EXPECT_LT(same_top_byte, 30);
}

TEST(HashTest, HashStringBasics) {
  EXPECT_EQ(HashString("pagerank"), HashString("pagerank"));
  EXPECT_NE(HashString("pagerank"), HashString("pagerang"));
  EXPECT_NE(HashString(""), HashString("a"));
}

}  // namespace
}  // namespace jxp
