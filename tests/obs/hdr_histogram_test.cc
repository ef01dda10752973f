#include "obs/hdr_histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "obs/json_writer.h"
#include "obs/latency_recorder.h"
#include "obs/telemetry.h"

namespace jxp {
namespace {

using obs::HdrHistogram;
using obs::LatencyRecorder;
using obs::LatencyStage;

TEST(HdrHistogramTest, EmptyHistogram) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.ValueAtPercentile(50), 0u);
}

TEST(HdrHistogramTest, ExactBelowSubBucketCount) {
  // Values below 256 get one slot each, so every percentile of a
  // small-value multiset is exact.
  HdrHistogram h;
  for (uint64_t v = 0; v < HdrHistogram::kSubBucketCount; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 256u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 255u);
  // ceil(p/100 * 256)-th smallest of {0..255} is ceil(p/100*256) - 1.
  for (const double p : {1.0, 10.0, 25.0, 50.0, 90.0, 99.0, 99.9}) {
    const uint64_t rank =
        static_cast<uint64_t>(std::ceil(p / 100.0 * 256.0));
    EXPECT_EQ(h.ValueAtPercentile(p), rank - 1) << "p=" << p;
  }
}

TEST(HdrHistogramTest, SlotArithmeticInvariants) {
  // Every probed value maps to a slot whose upper bound is >= the value and
  // whose relative width is at most 2^-7 of the value; slot indexes are
  // monotone in the value.
  uint64_t previous_slot = 0;
  for (uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{255}, uint64_t{256}, uint64_t{257},
        uint64_t{511}, uint64_t{512}, uint64_t{1000}, uint64_t{123456},
        uint64_t{1} << 32, (uint64_t{1} << 62) + 12345,
        ~uint64_t{0} - 1, ~uint64_t{0}}) {
    const size_t slot = HdrHistogram::SlotIndexOf(value);
    ASSERT_LT(slot, HdrHistogram::kNumSlots);
    const uint64_t upper = HdrHistogram::SlotUpperBound(slot);
    EXPECT_GE(upper, value);
    if (slot > 0) {
      EXPECT_LT(HdrHistogram::SlotUpperBound(slot - 1), value);
    }
    if (value >= HdrHistogram::kSubBucketCount) {
      // Width of the covering slot, relative to the value it covers.
      const uint64_t lower = HdrHistogram::SlotUpperBound(slot - 1) + 1;
      const double rel_width = static_cast<double>(upper - lower + 1) /
                               static_cast<double>(value);
      EXPECT_LE(rel_width, 1.0 / 128.0 + 1e-12) << "value=" << value;
    } else {
      EXPECT_EQ(upper, value);  // exact range
    }
    EXPECT_GE(slot, previous_slot);
    previous_slot = slot;
  }
}

TEST(HdrHistogramTest, QuantileErrorBounds) {
  // Documented contract: q* <= ValueAtPercentile(p) <= q* * (1 + 2^-7),
  // where q* is the true percentile of the recorded multiset. Checked
  // against a sorted copy over a wide log-uniform sample.
  Random rng(20260808);
  std::vector<uint64_t> samples;
  HdrHistogram h;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over [1, 2^40): exercises many power-of-two ranges.
    const int bits = 1 + static_cast<int>(rng.NextDouble() * 39.0);
    const uint64_t value = (uint64_t{1} << bits) |
                           (rng.NextUint64() & ((uint64_t{1} << bits) - 1));
    samples.push_back(value);
    h.Record(value);
  }
  std::sort(samples.begin(), samples.end());
  for (const double p : {0.1, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 99.99}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const uint64_t truth = samples[std::max<size_t>(rank, 1) - 1];
    const uint64_t got = h.ValueAtPercentile(p);
    EXPECT_GE(got, truth) << "p=" << p;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(truth) * (1.0 + 1.0 / 128.0)) << "p=" << p;
  }
  EXPECT_EQ(h.ValueAtPercentile(100), samples.back());
  EXPECT_EQ(h.ValueAtPercentile(0), samples.front());
  EXPECT_EQ(h.ValueAtPercentile(-5), samples.front());
  EXPECT_EQ(h.ValueAtPercentile(250), samples.back());
}

TEST(HdrHistogramTest, PercentileClampedToRecordedMax) {
  // The slot upper bound can exceed every recorded value; the clamp keeps
  // reported percentiles inside the observed range.
  HdrHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.ValueAtPercentile(50), 1000u);
  EXPECT_EQ(h.ValueAtPercentile(99.9), 1000u);
}

TEST(HdrHistogramTest, RecordManyMatchesRepeatedRecord) {
  HdrHistogram a;
  HdrHistogram b;
  a.RecordMany(5000, 1000);
  for (int i = 0; i < 1000; ++i) b.Record(5000);
  EXPECT_TRUE(a == b);
}

TEST(HdrHistogramTest, MergeIsOrderIndependent) {
  // The same multiset recorded whole, or split into shards merged in any
  // order, yields bit-identical state — the property that makes per-worker
  // recording + MergeFrom equal to a single global histogram.
  Random rng(424242);
  std::vector<uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(rng.NextUint64() >> rng.NextBounded(50));
  }

  HdrHistogram whole;
  for (const uint64_t v : values) whole.Record(v);

  constexpr size_t kShards = 7;
  std::vector<HdrHistogram> shards(kShards);
  for (size_t i = 0; i < values.size(); ++i) shards[i % kShards].Record(values[i]);

  HdrHistogram forward;
  for (size_t s = 0; s < kShards; ++s) forward.MergeFrom(shards[s]);
  HdrHistogram backward;
  for (size_t s = kShards; s-- > 0;) backward.MergeFrom(shards[s]);

  EXPECT_TRUE(forward == whole);
  EXPECT_TRUE(backward == whole);
  EXPECT_EQ(forward.ValueAtPercentile(99), whole.ValueAtPercentile(99));
}

TEST(HdrHistogramTest, CrossThreadMergeBitIdentity) {
  // Per-thread recording then merging equals serial recording bit for bit,
  // regardless of scheduling. Runs under TSan in CI.
  Random rng(777);
  std::vector<uint64_t> values;
  for (int i = 0; i < 8000; ++i) values.push_back(1 + rng.NextBounded(1000000));

  HdrHistogram serial;
  for (const uint64_t v : values) serial.Record(v);

  constexpr size_t kThreads = 4;
  std::vector<HdrHistogram> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < values.size(); i += kThreads) {
        per_thread[t].Record(values[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  HdrHistogram merged;
  for (const HdrHistogram& h : per_thread) merged.MergeFrom(h);
  EXPECT_TRUE(merged == serial);
}

TEST(HdrHistogramTest, ClearDropsEverything) {
  HdrHistogram h;
  h.Record(123);
  h.Record(456789);
  h.Clear();
  EXPECT_TRUE(h == HdrHistogram());
}

TEST(LatencyRecorderTest, StageNamesAreStable) {
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kPriming), "priming");
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kDecode), "decode");
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kScoring), "scoring");
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kHeap), "heap");
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kFanIn), "fan_in");
  EXPECT_STREQ(obs::LatencyStageName(LatencyStage::kTotal), "total");
}

/// Samples recorded across all of `recorder`'s stages.
uint64_t TotalCount(const LatencyRecorder& recorder) {
  uint64_t total = 0;
  for (size_t s = 0; s < obs::kNumLatencyStages; ++s) {
    total += recorder.StageSnapshot(static_cast<LatencyStage>(s)).count();
  }
  return total;
}

TEST(LatencyRecorderTest, RecordsPerStage) {
  LatencyRecorder recorder;
  EXPECT_EQ(TotalCount(recorder), 0u);
  recorder.Record(LatencyStage::kDecode, 1000);
  recorder.Record(LatencyStage::kDecode, 2000);
  recorder.Record(LatencyStage::kTotal, 5000);
  EXPECT_EQ(TotalCount(recorder), 3u);
  EXPECT_EQ(recorder.StageSnapshot(LatencyStage::kDecode).count(), 2u);
  EXPECT_EQ(recorder.StageSnapshot(LatencyStage::kTotal).max(), 5000u);
  EXPECT_EQ(recorder.StageSnapshot(LatencyStage::kHeap).count(), 0u);
}

TEST(LatencyRecorderTest, GatedOnTelemetrySwitch) {
  obs::ScopedEnable off(false);
  LatencyRecorder recorder;
  recorder.Record(LatencyStage::kTotal, 1234);
  EXPECT_EQ(TotalCount(recorder), 0u);
}

TEST(LatencyRecorderTest, ConcurrentRecordingMatchesSerial) {
  // The mutex-guarded recorder accumulates integer counts, so any
  // interleaving of the same samples yields bit-identical stage
  // histograms. Runs under TSan in CI.
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 2000;
  LatencyRecorder concurrent;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        concurrent.Record(static_cast<LatencyStage>(i % obs::kNumLatencyStages),
                          t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LatencyRecorder serial;
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      serial.Record(static_cast<LatencyStage>(i % obs::kNumLatencyStages),
                    t * kPerThread + i);
    }
  }
  for (size_t s = 0; s < obs::kNumLatencyStages; ++s) {
    const auto stage = static_cast<LatencyStage>(s);
    EXPECT_TRUE(concurrent.StageSnapshot(stage) == serial.StageSnapshot(stage))
        << "stage " << obs::LatencyStageName(stage);
  }
}

TEST(LatencyRecorderTest, MergeFromAccumulates) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.Record(LatencyStage::kScoring, 100);
  b.Record(LatencyStage::kScoring, 200);
  b.Record(LatencyStage::kHeap, 300);
  a.MergeFrom(b);
  EXPECT_EQ(a.StageSnapshot(LatencyStage::kScoring).count(), 2u);
  EXPECT_EQ(a.StageSnapshot(LatencyStage::kHeap).count(), 1u);
  EXPECT_EQ(TotalCount(b), 2u);  // untouched
}

TEST(LatencyRecorderTest, WriteJsonFieldsSkipsEmptyStagesAndUsesNsSuffix) {
  LatencyRecorder recorder;
  recorder.Record(LatencyStage::kDecode, 1000);
  recorder.Record(LatencyStage::kDecode, 3000);
  obs::JsonWriter writer;
  recorder.WriteJsonFields(writer, "stage_");
  const std::string line = writer.TakeLine();
  EXPECT_NE(line.find("\"stage_decode_count\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"stage_decode_p99_ns\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"stage_decode_max_ns\":3000"), std::string::npos) << line;
  // Empty stages are skipped entirely.
  EXPECT_EQ(line.find("stage_heap"), std::string::npos) << line;
  // Same state, same bytes.
  obs::JsonWriter again;
  recorder.WriteJsonFields(again, "stage_");
  EXPECT_EQ(again.TakeLine(), line);
}

}  // namespace
}  // namespace jxp
