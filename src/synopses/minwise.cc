#include "synopses/minwise.h"

#include <algorithm>

namespace jxp {
namespace synopses {

namespace {

/// The Mersenne prime 2^61 - 1; multiplication fits in 128 bits and the
/// modulo reduces with shifts.
constexpr uint64_t kPrime = (uint64_t{1} << 61) - 1;

uint64_t MulMod(uint64_t x, uint64_t y) {
  const __uint128_t product = static_cast<__uint128_t>(x) * y;
  uint64_t lo = static_cast<uint64_t>(product & kPrime);
  uint64_t hi = static_cast<uint64_t>(product >> 61);
  uint64_t sum = lo + hi;
  if (sum >= kPrime) sum -= kPrime;
  return sum;
}

}  // namespace

MinWiseFamily::MinWiseFamily(size_t num_permutations, uint64_t seed) {
  JXP_CHECK_GT(num_permutations, 0u);
  Random rng(seed);
  a_.reserve(num_permutations);
  b_.reserve(num_permutations);
  for (size_t i = 0; i < num_permutations; ++i) {
    a_.push_back(1 + rng.NextBounded(kPrime - 1));  // a in [1, p-1]
    b_.push_back(rng.NextBounded(kPrime));          // b in [0, p-1]
  }
}

uint64_t MinWiseFamily::Permute(size_t i, uint64_t x) const {
  uint64_t v = MulMod(a_[i], x % kPrime);
  v += b_[i];
  if (v >= kPrime) v -= kPrime;
  return v;
}

MinWiseSignature MinWiseFamily::Sign(std::span<const uint64_t> keys) const {
  std::vector<uint64_t> minima(NumPermutations(), kPrime);
  for (uint64_t key : keys) {
    for (size_t i = 0; i < NumPermutations(); ++i) {
      minima[i] = std::min(minima[i], Permute(i, key));
    }
  }
  return MinWiseSignature(std::move(minima), keys.size());
}

MinWiseSignature MinWiseFamily::Sign(std::span<const uint32_t> keys) const {
  std::vector<uint64_t> minima(NumPermutations(), kPrime);
  for (uint32_t key : keys) {
    for (size_t i = 0; i < NumPermutations(); ++i) {
      minima[i] = std::min(minima[i], Permute(i, key));
    }
  }
  return MinWiseSignature(std::move(minima), keys.size());
}

double EstimateResemblance(const MinWiseSignature& a, const MinWiseSignature& b) {
  JXP_CHECK_EQ(a.NumPermutations(), b.NumPermutations());
  JXP_CHECK_GT(a.NumPermutations(), 0u);
  if (a.IsEmpty() && b.IsEmpty()) return 1.0;
  if (a.IsEmpty() || b.IsEmpty()) return 0.0;
  size_t equal = 0;
  for (size_t i = 0; i < a.NumPermutations(); ++i) {
    if (a.minima()[i] == b.minima()[i]) ++equal;
  }
  return static_cast<double>(equal) / static_cast<double>(a.NumPermutations());
}

double EstimateUnionSize(const MinWiseSignature& a, const MinWiseSignature& b) {
  const double r = EstimateResemblance(a, b);
  return static_cast<double>(a.set_size() + b.set_size()) / (1.0 + r);
}

double EstimateOverlap(const MinWiseSignature& a, const MinWiseSignature& b) {
  const double r = EstimateResemblance(a, b);
  const double overlap = r * EstimateUnionSize(a, b);
  // The overlap cannot exceed either set.
  return std::min(overlap,
                  static_cast<double>(std::min(a.set_size(), b.set_size())));
}

double EstimateContainment(const MinWiseSignature& a, const MinWiseSignature& b) {
  if (b.set_size() == 0) return 0.0;
  return EstimateOverlap(a, b) / static_cast<double>(b.set_size());
}

}  // namespace synopses
}  // namespace jxp
