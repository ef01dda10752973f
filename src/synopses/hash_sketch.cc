#include "synopses/hash_sketch.h"

#include <bit>
#include <cmath>

#include "common/hash.h"

namespace jxp {
namespace synopses {

namespace {
/// Flajolet–Martin magic constant.
constexpr double kPhi = 0.77351;
/// Small-cardinality correction exponent from Flajolet & Martin (1985):
/// E = (m/phi) * (2^A - 2^(-kappa*A)). Without it the estimator is biased
/// low for n/m below ~30.
constexpr double kKappa = 1.75;
}  // namespace

HashSketch::HashSketch(size_t num_buckets, uint64_t seed) : seed_(seed) {
  JXP_CHECK_GT(num_buckets, 0u);
  bitmaps_.assign(num_buckets, 0);
}

void HashSketch::Add(uint64_t key) {
  const uint64_t h = Mix64(key ^ seed_);
  const size_t bucket = static_cast<size_t>(h % bitmaps_.size());
  const uint64_t rest = h / bitmaps_.size();
  // Index of the lowest set bit of `rest` follows Geometric(1/2).
  const int rank = rest == 0 ? 63 : std::countr_zero(rest);
  bitmaps_[bucket] |= uint64_t{1} << rank;
}

double HashSketch::EstimateCardinality() const {
  // PCSA estimator: mean index of the lowest *unset* bit across buckets,
  // with the small-cardinality correction term.
  double rank_sum = 0;
  for (uint64_t bitmap : bitmaps_) {
    rank_sum += static_cast<double>(std::countr_one(bitmap));
  }
  const double m = static_cast<double>(bitmaps_.size());
  const double mean_rank = rank_sum / m;
  return (m / kPhi) * (std::pow(2.0, mean_rank) - std::pow(2.0, -kKappa * mean_rank));
}

void HashSketch::UnionWith(const HashSketch& other) {
  JXP_CHECK_EQ(bitmaps_.size(), other.bitmaps_.size());
  JXP_CHECK_EQ(seed_, other.seed_);
  for (size_t i = 0; i < bitmaps_.size(); ++i) bitmaps_[i] |= other.bitmaps_[i];
}

double EstimateOverlap(const HashSketch& a, const HashSketch& b) {
  HashSketch u = a;
  u.UnionWith(b);
  const double overlap =
      a.EstimateCardinality() + b.EstimateCardinality() - u.EstimateCardinality();
  return overlap < 0 ? 0 : overlap;
}

double EstimateContainment(const HashSketch& a, const HashSketch& b) {
  const double nb = b.EstimateCardinality();
  if (nb <= 0) return 0;
  const double c = EstimateOverlap(a, b) / nb;
  return c > 1 ? 1 : c;
}

}  // namespace synopses
}  // namespace jxp
