// Ablation A1: synopsis choice for the pre-meetings strategy — min-wise
// permutations (the paper's pick) vs Bloom filters vs Flajolet-Martin hash
// sketches vs exact sets. Reports containment-estimation error against wire
// size, over synthetic set pairs with controlled overlap.

#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "common/flags.h"
#include "common/random.h"
#include "synopses/bloom.h"
#include "synopses/hash_sketch.h"
#include "synopses/minwise.h"

namespace jxp {
namespace bench {

namespace {

/// Set pairs, one per containment step over [0, 1).
constexpr size_t kTrials = 40;
/// |A| = |B|.
constexpr size_t kSetSize = 2000;

struct Trial {
  std::vector<uint64_t> a;
  std::vector<uint64_t> b;
  double true_containment;  // |A ∩ B| / |B|.
};

Trial MakeTrial(size_t size_a, size_t size_b, double containment, Random& rng) {
  Trial t;
  const size_t shared = static_cast<size_t>(containment * static_cast<double>(size_b));
  uint64_t next = 1;
  for (size_t i = 0; i < shared; ++i) {
    const uint64_t key = next++;
    t.a.push_back(key);
    t.b.push_back(key);
  }
  for (size_t i = shared; i < size_a; ++i) t.a.push_back(1000000 + next++);
  for (size_t i = shared; i < size_b; ++i) t.b.push_back(2000000 + next++);
  rng.Shuffle(t.a);
  rng.Shuffle(t.b);
  t.true_containment = static_cast<double>(shared) / static_cast<double>(size_b);
  return t;
}

}  // namespace

void Run(int argc, char** argv) {
  Flags flags;
  JXP_CHECK_OK(flags.Parse(argc, argv));
  Random rng(static_cast<uint64_t>(flags.GetInt("seed", 5)));

  std::printf("# Ablation A1: containment estimation error vs synopsis bytes\n");
  std::printf("# %zu trials, |A| = |B| = %zu, containment swept over [0, 1]\n", kTrials,
              kSetSize);
  std::printf("synopsis\tbytes\tmean_abs_error\tmax_abs_error\n");

  const synopses::MinWiseFamily family_small(64, 42);
  const synopses::MinWiseFamily family_big(256, 42);

  double err_mips64 = 0, max_mips64 = 0;
  double err_mips256 = 0, max_mips256 = 0;
  double err_bloom = 0, max_bloom = 0;
  double err_sketch = 0, max_sketch = 0;
  double bytes_bloom = 0, bytes_sketch = 0;

  for (size_t trial = 0; trial < kTrials; ++trial) {
    const double containment = static_cast<double>(trial) / static_cast<double>(kTrials);
    const Trial t = MakeTrial(kSetSize, kSetSize, containment, rng);
    auto record = [&](double estimate, double& err, double& worst) {
      const double e = std::abs(estimate - t.true_containment);
      err += e / static_cast<double>(kTrials);
      worst = std::max(worst, e);
    };
    // MIPs.
    {
      const auto a64 = family_small.Sign(std::span<const uint64_t>(t.a));
      const auto b64 = family_small.Sign(std::span<const uint64_t>(t.b));
      record(EstimateContainment(a64, b64), err_mips64, max_mips64);
      const auto a256 = family_big.Sign(std::span<const uint64_t>(t.a));
      const auto b256 = family_big.Sign(std::span<const uint64_t>(t.b));
      record(EstimateContainment(a256, b256), err_mips256, max_mips256);
    }
    // Bloom.
    {
      synopses::BloomFilter a(16384, 4), b(16384, 4);
      for (uint64_t k : t.a) a.Add(k);
      for (uint64_t k : t.b) b.Add(k);
      bytes_bloom = static_cast<double>(a.SizeBytes());
      record(EstimateContainment(a, b), err_bloom, max_bloom);
    }
    // FM hash sketch.
    {
      synopses::HashSketch a(256), b(256);
      for (uint64_t k : t.a) a.Add(k);
      for (uint64_t k : t.b) b.Add(k);
      bytes_sketch = static_cast<double>(a.SizeBytes());
      record(EstimateContainment(a, b), err_sketch, max_sketch);
    }
  }
  std::printf("mips64\t%zu\t%.4f\t%.4f\n",
              static_cast<size_t>(family_small.NumPermutations() * 8 + 8), err_mips64,
              max_mips64);
  std::printf("mips256\t%zu\t%.4f\t%.4f\n",
              static_cast<size_t>(family_big.NumPermutations() * 8 + 8), err_mips256,
              max_mips256);
  std::printf("bloom16k\t%.0f\t%.4f\t%.4f\n", bytes_bloom, err_bloom, max_bloom);
  std::printf("fm256\t%.0f\t%.4f\t%.4f\n", bytes_sketch, err_sketch, max_sketch);
  std::printf("exact\t%zu\t0.0000\t0.0000\n", kSetSize * 8);
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
