#ifndef JXP_COMMON_RANDOM_H_
#define JXP_COMMON_RANDOM_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace jxp {

/// SplitMix64: a tiny, fast, high-quality 64-bit mixer. Used to seed the
/// main generator and as a standalone stateless hash-like stream.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Returns the next 64-bit value of the stream.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Deterministic pseudo-random engine (xoshiro256**). All randomized code in
/// the library takes a Random& so that simulations are exactly reproducible
/// from a single seed; std::mt19937 is avoided because its stream is slower
/// and its seeding is easy to get wrong.
class Random {
 public:
  /// Seeds the four lanes from SplitMix64(seed), the construction recommended
  /// by the xoshiro authors.
  explicit Random(uint64_t seed = 0x853c49e6748fea9bULL) { Reseed(seed); }

  /// Re-seeds the engine; the subsequent stream depends only on `seed`.
  void Reseed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& lane : state_) lane = sm.Next();
  }

  /// Next raw 64 bits.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double NextDouble() { return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53; }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool NextBool(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace jxp

#endif  // JXP_COMMON_RANDOM_H_
