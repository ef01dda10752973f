#include "p2p/faults.h"

#include <vector>

#include <gtest/gtest.h>

namespace jxp {
namespace p2p {
namespace {

TEST(FaultPlanTest, DrawIsDeterministicAndKeepsItsBounds) {
  FaultPlan plan;
  plan.message_drop_probability = 0.2;
  plan.truncation_probability = 0.3;
  plan.truncation_keep_fraction = 1.0;  // The prefix must stay strict anyway.
  plan.corruption_probability = 0.3;
  plan.seed = 17;
  Random first(plan.seed);
  Random second(plan.seed);
  size_t seen[4] = {};
  for (size_t i = 0; i < 2000; ++i) {
    const size_t size = 1 + i % 97;
    const BlobFault fault = plan.Draw(size, first);
    const BlobFault again = plan.Draw(size, second);
    ASSERT_EQ(fault.kind, again.kind) << "draw " << i;
    ASSERT_EQ(fault.kept_bytes, again.kept_bytes);
    ASSERT_EQ(fault.bit, again.bit);
    ++seen[static_cast<int>(fault.kind)];

    std::vector<uint8_t> blob(size, 0xa5);
    fault.ApplyTo(blob);
    switch (fault.kind) {
      case BlobFault::Kind::kNone:
        EXPECT_EQ(blob, std::vector<uint8_t>(size, 0xa5));
        break;
      case BlobFault::Kind::kDrop:
        EXPECT_TRUE(blob.empty());
        break;
      case BlobFault::Kind::kTruncate:
        EXPECT_LT(fault.kept_bytes, size);
        EXPECT_EQ(blob, std::vector<uint8_t>(fault.kept_bytes, 0xa5));
        break;
      case BlobFault::Kind::kCorrupt: {
        EXPECT_LT(fault.bit, size * 8);
        size_t flipped = 0;
        for (uint8_t byte : blob) flipped += __builtin_popcount(byte ^ 0xa5);
        EXPECT_EQ(flipped, 1u);
        break;
      }
    }
  }
  for (size_t count : seen) EXPECT_GT(count, 0u);

  // A different seed draws a different fault stream.
  Random other(plan.seed + 1);
  Random replay(plan.seed);
  size_t differ = 0;
  for (size_t i = 0; i < 200; ++i) {
    const BlobFault a = plan.Draw(64, other);
    const BlobFault b = plan.Draw(64, replay);
    differ += a.kind != b.kind || a.bit != b.bit;
  }
  EXPECT_GT(differ, 0u);

  // A truncation keeps floor(keep * size) bytes, and an empty blob draws
  // nothing.
  FaultPlan halve;
  halve.truncation_probability = 1.0;
  halve.truncation_keep_fraction = 0.5;
  EXPECT_EQ(halve.Draw(9, first).kept_bytes, 4u);
  EXPECT_EQ(halve.Draw(1, first).kept_bytes, 0u);
  EXPECT_EQ(halve.Draw(0, first).kind, BlobFault::Kind::kNone);
}

}  // namespace
}  // namespace p2p
}  // namespace jxp
