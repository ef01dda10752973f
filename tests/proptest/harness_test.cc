// Tests of the property-test harness itself: seed plumbing, environment
// overrides, and the shrinking loop.

#include "proptest.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include "generators.h"

namespace jxp {
namespace proptest {
namespace {

/// Scoped environment-variable override (the harness reads the environment
/// on every call, so setenv/unsetenv around a call is race-free in a
/// single-threaded test binary).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(ProptestHarness, CaseSeedIsIdentityAtIndexZero) {
  EXPECT_EQ(CaseSeed(12345, 0), 12345u);
  EXPECT_EQ(CaseSeed(0, 0), 0u);
}

TEST(ProptestHarness, CaseSeedsAreDistinct) {
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < 100; ++i) seeds.push_back(CaseSeed(42, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ProptestHarness, EnvironmentOverridesSeedAndCases) {
  {
    ScopedEnv seed("JXP_PROPTEST_SEED", "777");
    ScopedEnv cases("JXP_PROPTEST_CASES", "3");
    EXPECT_EQ(MasterSeed(1), 777u);
    EXPECT_EQ(NumCases(100), 3u);
  }
  {
    ScopedEnv seed("JXP_PROPTEST_SEED", "not-a-number");
    ScopedEnv cases("JXP_PROPTEST_CASES", "0");
    EXPECT_EQ(MasterSeed(1), 1u);   // Unparseable: default.
    EXPECT_EQ(NumCases(100), 100u);  // Zero cases: default.
  }
}

/// A toy case for exercising ForAll's shrink loop without the JXP stack.
struct ToyCase {
  uint64_t seed = 0;
  size_t size = 0;

  std::string Describe() const { return "size=" + std::to_string(size); }
  std::vector<ToyCase> Shrink() const {
    if (size == 0) return {};
    return {ToyCase{seed, size / 2}, ToyCase{seed, size - 1}};
  }
};

TEST(ProptestHarness, PassingPropertyReportsNothing) {
  ForAll<ToyCase>(
      9, 50, [](uint64_t seed) { return ToyCase{seed, seed % 100}; },
      [](const ToyCase&) { return CheckResult(); });
}

TEST(ProptestHarness, FailingPropertyShrinksToMinimalCase) {
  // Property "size < 10" fails for many generated cases; the minimal
  // counterexample reachable by halving/decrementing is size == 10.
  size_t checks = 0;
  ToyCase smallest_seen{0, static_cast<size_t>(-1)};
  EXPECT_NONFATAL_FAILURE(
      {
        ForAll<ToyCase>(
            9, 50, [](uint64_t seed) { return ToyCase{seed, 10 + seed % 90}; },
            [&](const ToyCase& c) -> CheckResult {
              ++checks;
              if (c.size < 10) return std::nullopt;
              if (c.size < smallest_seen.size) smallest_seen = c;
              return "size too large: " + std::to_string(c.size);
            });
      },
      "repro: JXP_PROPTEST_SEED=");
  EXPECT_EQ(smallest_seen.size, 10u) << "shrinking did not reach the boundary";
  EXPECT_GT(checks, 1u);
}

TEST(ProptestHarness, GeneratorIsDeterministic) {
  PlanLimits limits;
  limits.max_drop = 0.3;
  limits.max_crash = 0.2;
  limits.max_corruption = 0.4;
  const FaultCase a = GenerateFaultCase(1234, limits);
  const FaultCase b = GenerateFaultCase(1234, limits);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.plan.message_drop_probability, b.plan.message_drop_probability);
  EXPECT_EQ(a.plan.seed, b.plan.seed);

  const GeneratedWorld wa = BuildWorld(a);
  const GeneratedWorld wb = BuildWorld(b);
  ASSERT_EQ(wa.fragments.size(), wb.fragments.size());
  for (size_t p = 0; p < wa.fragments.size(); ++p) {
    EXPECT_EQ(wa.fragments[p], wb.fragments[p]);
  }
  EXPECT_EQ(wa.graph.NumNodes(), a.num_nodes);
}

TEST(ProptestHarness, GeneratorRespectsLimits) {
  PlanLimits limits;  // All-zero: every fault disabled.
  for (uint64_t s = 0; s < 50; ++s) {
    const FaultCase c = GenerateFaultCase(CaseSeed(7, s), limits);
    EXPECT_EQ(c.plan.message_drop_probability, 0.0) << c.Describe();
    EXPECT_EQ(c.plan.truncation_probability, 0.0);
    EXPECT_EQ(c.plan.corruption_probability, 0.0);
    EXPECT_EQ(c.crash_probability, 0.0);
    EXPECT_EQ(c.stale_resume_probability, 0.0);
    EXPECT_GE(c.num_nodes, 16u);
    EXPECT_LE(c.num_nodes, 56u);
    EXPECT_GE(c.num_peers, 2u);
    EXPECT_LE(c.num_peers, 5u);
    EXPECT_GT(c.plan.truncation_keep_fraction, 0.0);
    EXPECT_LE(c.plan.truncation_keep_fraction, 1.0);
  }
}

TEST(ProptestHarness, ShrinkCandidatesAreSmallerOrFaultFree) {
  PlanLimits limits;
  limits.max_drop = 0.5;
  limits.max_truncation = 0.5;
  limits.max_crash = 0.3;
  limits.max_stale_resume = 0.3;
  limits.max_corruption = 0.5;
  const FaultCase c = GenerateFaultCase(99, limits);
  for (const FaultCase& s : c.Shrink()) {
    EXPECT_EQ(s.seed, c.seed);
    const bool smaller = s.num_nodes < c.num_nodes || s.num_peers < c.num_peers ||
                         s.num_meetings < c.num_meetings ||
                         (c.full_merge && !s.full_merge);
    const bool fault_removed =
        (c.plan.message_drop_probability > 0 && s.plan.message_drop_probability == 0) ||
        (c.plan.truncation_probability > 0 && s.plan.truncation_probability == 0) ||
        (c.plan.corruption_probability > 0 && s.plan.corruption_probability == 0) ||
        (c.crash_probability > 0 && s.crash_probability == 0) ||
        (c.stale_resume_probability > 0 && s.stale_resume_probability == 0);
    EXPECT_TRUE(smaller || fault_removed) << s.Describe();
  }
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
