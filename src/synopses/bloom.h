#ifndef JXP_SYNOPSES_BLOOM_H_
#define JXP_SYNOPSES_BLOOM_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace jxp {
namespace synopses {

/// Bloom filter over 64-bit keys used as a set sketch: cardinality and
/// set-overlap estimation from fill ratios (Swamidass & Baldi). Provided as an
/// alternative synopsis for the pre-meetings strategy (ablation A1); the
/// paper itself uses MIPs.
class BloomFilter {
 public:
  /// Creates a filter with `num_bits` bits (rounded up to a multiple of 64)
  /// and `num_hashes` hash functions. All peers must use the same `seed`.
  BloomFilter(size_t num_bits, size_t num_hashes, uint64_t seed = 0x9d2c5680u);

  /// Inserts a key.
  void Add(uint64_t key);

  /// Number of set bits.
  size_t PopCount() const;

  /// Cardinality estimate from the fill ratio:
  ///   n ≈ -(m/k) * ln(1 - X/m), X = set bits.
  double EstimateCardinality() const;

  /// In-place union with a compatible filter (same geometry and seed).
  void UnionWith(const BloomFilter& other);

  /// Wire size in bytes (bit array only).
  size_t SizeBytes() const { return words_.size() * 8; }

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return num_hashes_; }
  uint64_t seed() const { return seed_; }

 private:
  bool CompatibleWith(const BloomFilter& other) const {
    return num_bits_ == other.num_bits_ && num_hashes_ == other.num_hashes_ &&
           seed_ == other.seed_;
  }

  size_t num_bits_;
  size_t num_hashes_;
  uint64_t seed_;
  std::vector<uint64_t> words_;
};

/// Estimated |A ∩ B| by inclusion-exclusion over fill-ratio cardinalities:
/// |A∩B| ≈ n_A + n_B - n_{A∪B}. Filters must be compatible.
double EstimateOverlap(const BloomFilter& a, const BloomFilter& b);

/// Estimated containment |A ∩ B| / |B|; 0 when B is (estimated) empty.
double EstimateContainment(const BloomFilter& a, const BloomFilter& b);

}  // namespace synopses
}  // namespace jxp

#endif  // JXP_SYNOPSES_BLOOM_H_
