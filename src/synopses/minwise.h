#ifndef JXP_SYNOPSES_MINWISE_H_
#define JXP_SYNOPSES_MINWISE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace jxp {
namespace synopses {

/// A min-wise-independent-permutations (MIPs) signature of a set: for each
/// of N random linear permutations h_i(x) = (a_i * x + b_i) mod U (U a large
/// prime), the minimum permuted value over the set, plus the exact set size
/// (a single integer the peers exchange alongside the vector).
class MinWiseSignature {
 public:
  MinWiseSignature() = default;
  MinWiseSignature(std::vector<uint64_t> minima, uint64_t set_size)
      : minima_(std::move(minima)), set_size_(set_size) {}

  /// The per-permutation minima.
  const std::vector<uint64_t>& minima() const { return minima_; }

  /// Exact cardinality of the summarized set.
  uint64_t set_size() const { return set_size_; }

  /// Number of permutations.
  size_t NumPermutations() const { return minima_.size(); }

  /// True iff the summarized set was empty.
  bool IsEmpty() const { return set_size_ == 0; }

  /// Serialized wire size in bytes: 8 per minimum + 8 for the set size.
  size_t SizeBytes() const { return minima_.size() * 8 + 8; }

 private:
  std::vector<uint64_t> minima_;
  uint64_t set_size_ = 0;
};

/// A family of shared random permutations. All peers in the network use the
/// same family (seeded identically) so their signatures are comparable.
class MinWiseFamily {
 public:
  /// Creates `num_permutations` linear permutations mod the Mersenne prime
  /// 2^61 - 1, with parameters drawn from `seed`.
  MinWiseFamily(size_t num_permutations, uint64_t seed);

  /// Number of permutations (signature length).
  size_t NumPermutations() const { return a_.size(); }

  /// Computes the signature of a set of 64-bit keys (e.g. PageIds).
  MinWiseSignature Sign(std::span<const uint64_t> keys) const;

  /// Convenience overload for 32-bit keys.
  MinWiseSignature Sign(std::span<const uint32_t> keys) const;

 private:
  uint64_t Permute(size_t i, uint64_t x) const;

  std::vector<uint64_t> a_;
  std::vector<uint64_t> b_;
};

/// Estimated resemblance |A ∩ B| / |A ∪ B|: the fraction of positions with
/// equal minima. Signatures must come from the same family.
double EstimateResemblance(const MinWiseSignature& a, const MinWiseSignature& b);

/// Estimated size of A ∪ B, from resemblance and the exact set sizes:
/// |A ∪ B| = (|A| + |B|) / (1 + r).
double EstimateUnionSize(const MinWiseSignature& a, const MinWiseSignature& b);

/// Estimated overlap |A ∩ B| = r * |A ∪ B|.
double EstimateOverlap(const MinWiseSignature& a, const MinWiseSignature& b);

/// Estimated containment |A ∩ B| / |B| (the fraction of B's elements that
/// are also in A), the measure the pre-meetings strategy ranks peers by.
/// Returns 0 when B is empty.
double EstimateContainment(const MinWiseSignature& a, const MinWiseSignature& b);

}  // namespace synopses
}  // namespace jxp

#endif  // JXP_SYNOPSES_MINWISE_H_
