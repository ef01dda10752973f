#include "synopses/bloom.h"

#include <bit>
#include <cmath>

#include "common/hash.h"

namespace jxp {
namespace synopses {

BloomFilter::BloomFilter(size_t num_bits, size_t num_hashes, uint64_t seed)
    : num_bits_((num_bits + 63) / 64 * 64), num_hashes_(num_hashes), seed_(seed) {
  JXP_CHECK_GT(num_bits, 0u);
  JXP_CHECK_GT(num_hashes, 0u);
  words_.assign(num_bits_ / 64, 0);
}

void BloomFilter::Add(uint64_t key) {
  // Kirsch–Mitzenmacher double hashing: position_i = h1 + i * h2.
  const uint64_t h1 = Mix64(key ^ seed_);
  const uint64_t h2 = Mix64(key + 0x9e3779b97f4a7c15ULL + seed_) | 1;
  for (size_t i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = (h1 + i * h2) % num_bits_;
    words_[bit / 64] |= uint64_t{1} << (bit % 64);
  }
}

size_t BloomFilter::PopCount() const {
  size_t count = 0;
  for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
  return count;
}

double BloomFilter::EstimateCardinality() const {
  const double m = static_cast<double>(num_bits_);
  const double x = static_cast<double>(PopCount());
  if (x >= m) return m;  // Saturated filter: estimate diverges; clamp.
  return -(m / static_cast<double>(num_hashes_)) * std::log1p(-x / m);
}

void BloomFilter::UnionWith(const BloomFilter& other) {
  JXP_CHECK(CompatibleWith(other)) << "incompatible Bloom filters";
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

double EstimateOverlap(const BloomFilter& a, const BloomFilter& b) {
  BloomFilter u = a;
  u.UnionWith(b);
  const double overlap =
      a.EstimateCardinality() + b.EstimateCardinality() - u.EstimateCardinality();
  return overlap < 0 ? 0 : overlap;
}

double EstimateContainment(const BloomFilter& a, const BloomFilter& b) {
  const double nb = b.EstimateCardinality();
  if (nb <= 0) return 0;
  const double c = EstimateOverlap(a, b) / nb;
  return c > 1 ? 1 : c;
}

}  // namespace synopses
}  // namespace jxp
