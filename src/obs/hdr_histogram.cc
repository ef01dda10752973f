#include "obs/hdr_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace jxp {
namespace obs {

HdrHistogram::HdrHistogram() : counts_(kNumSlots, 0) {}

size_t HdrHistogram::SlotIndexOf(uint64_t value) {
  if (value < kSubBucketCount) return static_cast<size_t>(value);
  // bit_width is in (kSubBucketBits, 64]; bucket b >= 1 holds the values
  // whose top bit is at position kSubBucketBits + b - 1. Shifting by b
  // lands the value in [kSubBucketHalf, kSubBucketCount).
  const int bucket = std::bit_width(value) - kSubBucketBits;
  const uint64_t sub = value >> bucket;
  return static_cast<size_t>(kSubBucketCount) +
         static_cast<size_t>(bucket - 1) * static_cast<size_t>(kSubBucketHalf) +
         static_cast<size_t>(sub - kSubBucketHalf);
}

uint64_t HdrHistogram::SlotUpperBound(size_t index) {
  JXP_CHECK_LT(index, kNumSlots);
  if (index < kSubBucketCount) return static_cast<uint64_t>(index);
  const size_t rel = index - static_cast<size_t>(kSubBucketCount);
  const int bucket = static_cast<int>(rel / kSubBucketHalf) + 1;
  const uint64_t sub = kSubBucketHalf + rel % kSubBucketHalf;
  // Slot covers [sub << bucket, ((sub + 1) << bucket) - 1].
  return ((sub + 1) << bucket) - 1;
}

void HdrHistogram::RecordMany(uint64_t value, uint64_t n) {
  if (n == 0) return;
  counts_[SlotIndexOf(value)] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += n;
  sum_ += static_cast<unsigned __int128>(value) * n;
}

void HdrHistogram::MergeFrom(const HdrHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < kNumSlots; ++i) counts_[i] += other.counts_[i];
  AddMoments(other.count_, other.sum_, other.min_, other.max_);
}

void HdrHistogram::AddMoments(uint64_t count, unsigned __int128 sum, uint64_t min,
                              uint64_t max) {
  if (count == 0) return;
  if (count_ == 0 || min < min_) min_ = min;
  if (count_ == 0 || max > max_) max_ = max;
  count_ += count;
  sum_ += sum;
}

void HdrHistogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

uint64_t HdrHistogram::ValueAtPercentile(double percentile) const {
  if (count_ == 0) return 0;
  if (percentile <= 0.0) return min();
  if (percentile >= 100.0) return max();
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::ceil(percentile / 100.0 * static_cast<double>(count_))));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumSlots; ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) {
      // The slot's upper edge can exceed every recorded value (the max sits
      // somewhere inside its slot); clamp so no percentile exceeds max().
      return std::min(SlotUpperBound(i), max_);
    }
  }
  return max_;
}

bool HdrHistogram::operator==(const HdrHistogram& other) const {
  return count_ == other.count_ && sum_ == other.sum_ && min_ == other.min_ &&
         max_ == other.max_ && counts_ == other.counts_;
}

}  // namespace obs
}  // namespace jxp
