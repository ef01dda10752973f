#ifndef JXP_SYNOPSES_HASH_SKETCH_H_
#define JXP_SYNOPSES_HASH_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace jxp {
namespace synopses {

/// Flajolet–Martin hash sketch (PCSA variant) for distinct-count estimation
/// (the "hash sketches" of the paper's Section 4.3 literature list).
/// Supports lossless union, so overlap/containment can be estimated by
/// inclusion-exclusion. Ablation alternative to MIPs.
class HashSketch {
 public:
  /// Creates a sketch with `num_buckets` 64-bit bitmaps. All peers must use
  /// the same `seed`.
  explicit HashSketch(size_t num_buckets = 64, uint64_t seed = 0x2545f491u);

  /// Inserts a key.
  void Add(uint64_t key);

  /// Estimated number of distinct keys inserted:
  ///   E = (m / phi) * 2^(mean lowest-unset-bit index).
  double EstimateCardinality() const;

  /// In-place union (bitwise OR); the union sketch equals the sketch of the
  /// union of the inserted sets.
  void UnionWith(const HashSketch& other);

  /// Wire size in bytes (bitmaps only).
  size_t SizeBytes() const { return bitmaps_.size() * 8; }

 private:
  uint64_t seed_;
  std::vector<uint64_t> bitmaps_;
};

/// Estimated |A ∩ B| via inclusion-exclusion; sketches must share geometry
/// and seed.
double EstimateOverlap(const HashSketch& a, const HashSketch& b);

/// Estimated containment |A ∩ B| / |B|; 0 when B is (estimated) empty.
double EstimateContainment(const HashSketch& a, const HashSketch& b);

}  // namespace synopses
}  // namespace jxp

#endif  // JXP_SYNOPSES_HASH_SKETCH_H_
