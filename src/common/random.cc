#include "common/random.h"

#include <unordered_set>

namespace jxp {

uint64_t Random::NextBounded(uint64_t bound) {
  JXP_CHECK_GT(bound, 0u);
  // Lemire's method: multiply into a 128-bit product; reject the small
  // biased region at the bottom.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

std::vector<size_t> Random::SampleWithoutReplacement(size_t n, size_t k) {
  JXP_CHECK_LE(k, n);
  // For dense samples use a partial Fisher-Yates over an index vector; for
  // sparse samples use rejection into a hash set.
  if (k * 3 >= n) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < k; ++i) {
      const size_t j = i + static_cast<size_t>(NextBounded(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  std::unordered_set<size_t> seen;
  std::vector<size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    const size_t candidate = static_cast<size_t>(NextBounded(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace jxp
