#ifndef JXP_OBS_HDR_HISTOGRAM_H_
#define JXP_OBS_HDR_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jxp {
namespace obs {

/// An HDR-style log-linear histogram over non-negative integer values: the
/// one histogram type of the system. LatencyRecorder records nanoseconds
/// into it, and every MetricsRegistry histogram records its samples in
/// fixed-point units of 2^-20 (see obs::Histogram). It covers the whole
/// uint64 range at a fixed relative resolution with no bounds chosen per
/// call site, so one layout resolves a p99.9 spanning a ~50 ns cache hit
/// and a ~10 ms cold MaxScore descent in the same histogram.
///
/// Layout: values below kSubBucketCount (256) get one slot each (exact).
/// Above that, each power-of-two range is cut into kSubBucketCount/2 = 128
/// linear sub-buckets, so a slot's width is at most 1/128 of its value:
/// ~2 significant digits of resolution everywhere (relative slot width
/// 2^-7 ≈ 0.78%).
///
/// Determinism contract: every accumulated quantity is an exact integer —
/// slot counts, the total count, the value sum (128-bit, cannot overflow),
/// and min/max. Recording the same multiset of values in any order, or
/// split across any number of histograms later combined with MergeFrom,
/// yields bit-identical state; MergeFrom is associative and commutative.
/// Not internally synchronized: record into one histogram per thread and
/// merge, or guard externally (LatencyRecorder does the latter).
class HdrHistogram {
 public:
  /// log2 of the linear slot count of the lowest (exact) value range.
  static constexpr int kSubBucketBits = 8;
  static constexpr uint64_t kSubBucketCount = uint64_t{1} << kSubBucketBits;
  static constexpr uint64_t kSubBucketHalf = kSubBucketCount / 2;
  /// One exact range + one half-range per remaining power of two.
  static constexpr size_t kNumSlots =
      static_cast<size_t>(kSubBucketCount) + (64 - kSubBucketBits) * kSubBucketHalf;

  HdrHistogram();

  /// Records one value. Any uint64 is representable; no saturation.
  void Record(uint64_t value) { RecordMany(value, 1); }
  /// Records `n` observations of `value` in O(1).
  void RecordMany(uint64_t value, uint64_t n);

  /// Adds another histogram's counts into this one (integer addition —
  /// order-independent).
  void MergeFrom(const HdrHistogram& other);

  /// Drops all samples.
  void Clear();

  uint64_t count() const { return count_; }
  /// Smallest / largest recorded value, exact; 0 when empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return count_ == 0 ? 0 : max_; }
  /// Exact sum of all recorded values.
  double sum() const { return static_cast<double>(sum_); }
  double mean() const {
    return count_ == 0 ? 0.0 : sum() / static_cast<double>(count_);
  }

  /// The value at the given percentile (0..100), defined as the upper edge
  /// of the smallest slot whose cumulative count reaches
  /// ceil(percentile/100 * count), clamped to the exact recorded max.
  ///
  /// Error bounds: let q* be the true percentile value of the recorded
  /// multiset (the ceil(p/100*n)-th smallest sample). The returned value v
  /// satisfies q* <= v <= q* * (1 + 2^-7), i.e. v overestimates by at most
  /// ~0.79%, and is exact (v == q*) for q* < 256. Percentiles <= 0 return
  /// min(); >= 100 return max(); an empty histogram returns 0.
  uint64_t ValueAtPercentile(double percentile) const;

  /// Slot arithmetic, exposed for tests and iteration.
  static size_t SlotIndexOf(uint64_t value);
  /// Largest value mapping to slot `index`.
  static uint64_t SlotUpperBound(size_t index);
  uint64_t count_at(size_t index) const { return counts_[index]; }

  /// Bit-identity comparison (used by the determinism tests).
  bool operator==(const HdrHistogram& other) const;

 private:
  friend class MetricsRegistry;

  /// Registry-only raw merge: MetricsRegistry::Snapshot folds each thread
  /// shard's slot counts and moments in through these two calls (integer
  /// addition, like MergeFrom). `min`/`max` are ignored when `count` is 0.
  void AddToSlot(size_t index, uint64_t n) { counts_[index] += n; }
  void AddMoments(uint64_t count, unsigned __int128 sum, uint64_t min, uint64_t max);

  std::vector<uint64_t> counts_;  // kNumSlots.
  uint64_t count_ = 0;
  unsigned __int128 sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

}  // namespace obs
}  // namespace jxp

#endif  // JXP_OBS_HDR_HISTOGRAM_H_
