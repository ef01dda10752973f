#include "synopses/minwise.h"

#include <vector>

#include <gtest/gtest.h>

namespace jxp {
namespace synopses {
namespace {

std::vector<uint64_t> Range(uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> v;
  for (uint64_t x = lo; x < hi; ++x) v.push_back(x);
  return v;
}

TEST(MinWiseTest, IdenticalSetsHaveResemblanceOne) {
  MinWiseFamily family(64, 1);
  const auto keys = Range(0, 500);
  const MinWiseSignature a = family.Sign(std::span<const uint64_t>(keys));
  const MinWiseSignature b = family.Sign(std::span<const uint64_t>(keys));
  EXPECT_DOUBLE_EQ(EstimateResemblance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(EstimateContainment(a, b), 1.0);
}

TEST(MinWiseTest, DisjointSetsHaveLowResemblance) {
  MinWiseFamily family(128, 2);
  const auto k1 = Range(0, 400);
  const auto k2 = Range(10000, 10400);
  const MinWiseSignature a = family.Sign(std::span<const uint64_t>(k1));
  const MinWiseSignature b = family.Sign(std::span<const uint64_t>(k2));
  EXPECT_LT(EstimateResemblance(a, b), 0.05);
}

TEST(MinWiseTest, EstimatesKnownOverlap) {
  // |A| = |B| = 600, |A ∩ B| = 300, |A ∪ B| = 900 => r = 1/3,
  // containment = 0.5.
  MinWiseFamily family(256, 3);
  const auto k1 = Range(0, 600);
  const auto k2 = Range(300, 900);
  const MinWiseSignature a = family.Sign(std::span<const uint64_t>(k1));
  const MinWiseSignature b = family.Sign(std::span<const uint64_t>(k2));
  EXPECT_NEAR(EstimateResemblance(a, b), 1.0 / 3, 0.08);
  EXPECT_NEAR(EstimateOverlap(a, b), 300, 70);
  EXPECT_NEAR(EstimateContainment(a, b), 0.5, 0.12);
  EXPECT_NEAR(EstimateUnionSize(a, b), 900, 120);
}

TEST(MinWiseTest, ContainmentIsAsymmetric) {
  // B ⊂ A: containment(A, B) = 1, containment(B, A) = |B|/|A|.
  MinWiseFamily family(256, 4);
  const auto big = Range(0, 1000);
  const auto small = Range(0, 250);
  const MinWiseSignature a = family.Sign(std::span<const uint64_t>(big));
  const MinWiseSignature b = family.Sign(std::span<const uint64_t>(small));
  EXPECT_NEAR(EstimateContainment(a, b), 1.0, 0.1);
  EXPECT_NEAR(EstimateContainment(b, a), 0.25, 0.1);
}

TEST(MinWiseTest, EmptySets) {
  MinWiseFamily family(32, 6);
  const std::vector<uint64_t> empty;
  const auto keys = Range(0, 10);
  const MinWiseSignature e = family.Sign(std::span<const uint64_t>(empty));
  const MinWiseSignature a = family.Sign(std::span<const uint64_t>(keys));
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_DOUBLE_EQ(EstimateResemblance(e, e), 1.0);
  EXPECT_DOUBLE_EQ(EstimateResemblance(e, a), 0.0);
  EXPECT_DOUBLE_EQ(EstimateContainment(a, e), 0.0);
}

TEST(MinWiseTest, SignatureWireSize) {
  MinWiseFamily family(64, 7);
  const auto keys = Range(0, 10);
  const MinWiseSignature a = family.Sign(std::span<const uint64_t>(keys));
  EXPECT_EQ(a.SizeBytes(), 64u * 8 + 8);
}

TEST(MinWiseTest, SharedFamilyIsComparableAcrossInstances) {
  // Two peers construct the family independently from the same seed.
  MinWiseFamily f1(64, 42);
  MinWiseFamily f2(64, 42);
  const auto keys = Range(0, 100);
  EXPECT_EQ(f1.Sign(std::span<const uint64_t>(keys)).minima(),
            f2.Sign(std::span<const uint64_t>(keys)).minima());
}

TEST(MinWiseTest, ThirtyTwoBitOverloadMatches) {
  MinWiseFamily family(32, 8);
  std::vector<uint32_t> keys32 = {1, 5, 9};
  std::vector<uint64_t> keys64 = {1, 5, 9};
  EXPECT_EQ(family.Sign(std::span<const uint32_t>(keys32)).minima(),
            family.Sign(std::span<const uint64_t>(keys64)).minima());
}

}  // namespace
}  // namespace synopses
}  // namespace jxp
