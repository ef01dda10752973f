#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace jxp {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::HdrHistogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

/// The integer a registry histogram records for `value`.
uint64_t Units(double value) {
  return static_cast<uint64_t>(std::floor(value * Histogram::kUnitsPerValue + 0.5));
}

/// Records `values` into a fresh registry histogram and returns its merged
/// snapshot.
HdrHistogram ObserveAll(const std::vector<double>& values) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist");
  for (const double v : values) h.Observe(v);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.histograms.size(), 1u);
  return snapshot.histograms.at(0).data;
}

TEST(MetricsRegistryTest, CountersAndHistograms) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("test.counter");
  c.Increment();
  c.Increment(41);
  Histogram h = registry.GetHistogram("test.hist");
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "test.counter");
  EXPECT_EQ(snapshot.counters[0].value, 42u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const HdrHistogram& data = snapshot.histograms[0].data;
  EXPECT_EQ(data.count(), 3u);
  // Each sample sits in the slot of its units.
  EXPECT_EQ(data.count_at(HdrHistogram::SlotIndexOf(Units(0.5))), 1u);
  EXPECT_EQ(data.count_at(HdrHistogram::SlotIndexOf(Units(5.0))), 1u);
  EXPECT_EQ(data.count_at(HdrHistogram::SlotIndexOf(Units(50.0))), 1u);
  EXPECT_EQ(data.min(), Units(0.5));
  EXPECT_EQ(data.max(), Units(50.0));
  // The median is the middle sample to within one slot width.
  EXPECT_GE(data.ValueAtPercentile(50), Units(5.0));
  EXPECT_LE(data.ValueAtPercentile(50), Units(5.0) + Units(5.0) / 128);
}

TEST(MetricsRegistryTest, HistogramRecordsRoundedUnits) {
  constexpr double kUnit = 1.0 / Histogram::kUnitsPerValue;
  // 2.5 units round half up to 3; 0.49 units round down to 0.
  const HdrHistogram data = ObserveAll({1.0, 10.0, 100.0, 1000.0, 0.0, 3 * kUnit,
                                        2.5 * kUnit, 0.49 * kUnit});
  EXPECT_EQ(data.count(), 8u);
  EXPECT_EQ(data.count_at(0), 2u);
  EXPECT_EQ(data.count_at(3), 2u);
  for (const double v : {1.0, 10.0, 100.0, 1000.0}) {
    EXPECT_EQ(data.count_at(HdrHistogram::SlotIndexOf(Units(v))), 1u) << v;
  }
  EXPECT_EQ(data.min(), 0u);
  EXPECT_EQ(data.max(), Units(1000.0));
  // Below 256 units a slot holds one value, so low percentiles are exact.
  EXPECT_EQ(data.ValueAtPercentile(25), 0u);
  EXPECT_EQ(data.ValueAtPercentile(50), 3u);
}

TEST(MetricsRegistryTest, HistogramTracksMoments) {
  const HdrHistogram data = ObserveAll({3.0, 5.0});
  EXPECT_EQ(data.count(), 2u);
  EXPECT_EQ(data.sum(), 8.0 * Histogram::kUnitsPerValue);
  EXPECT_EQ(data.mean(), 4.0 * Histogram::kUnitsPerValue);
  EXPECT_EQ(data.min(), Units(3.0));
  EXPECT_EQ(data.max(), Units(5.0));
}

TEST(MetricsRegistryTest, HistogramSumIsQuantizedFixedPoint) {
  // 0.5 is exactly representable in units of 2^-20; 1/3 is not and gets
  // rounded to the nearest unit.
  EXPECT_EQ(Units(0.5), uint64_t{1} << 19);
  EXPECT_EQ(ObserveAll({0.5}).sum(), static_cast<double>(uint64_t{1} << 19));
  const double third = 1.0 / 3.0;
  const double sum = ObserveAll({third}).sum();
  EXPECT_EQ(sum, static_cast<double>(Units(third)));
  EXPECT_NEAR(sum / Histogram::kUnitsPerValue, third, 0.5 / Histogram::kUnitsPerValue);
}

TEST(MetricsRegistryTest, HistogramShardsMergeLikeOneAccumulator) {
  const std::vector<double> samples = {0.25, 1.0, 2.5, 4.0, 7.7, 16.0, 30.0, 0.0};
  const HdrHistogram whole = ObserveAll(samples);
  // The same samples from two threads land in two shards.
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist");
  std::vector<std::thread> threads;
  for (size_t part = 0; part < 2; ++part) {
    threads.emplace_back([&, part] {
      for (size_t i = part; i < samples.size(); i += 2) h.Observe(samples[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  const HdrHistogram merged = registry.Snapshot().histograms.at(0).data;
  EXPECT_TRUE(merged == whole);
  EXPECT_EQ(merged.count(), samples.size());
  EXPECT_EQ(merged.min(), 0u);
  EXPECT_EQ(merged.max(), Units(30.0));
}

TEST(MetricsRegistryTest, ResetClearsPublishedSlotRanges) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist");
  h.Observe(1.0);
  h.Observe(100.0);
  registry.Reset();
  EXPECT_TRUE(registry.Snapshot().histograms.at(0).data == HdrHistogram());
  h.Observe(100.0);
  const HdrHistogram data = registry.Snapshot().histograms.at(0).data;
  EXPECT_EQ(data.count(), 1u);
  EXPECT_EQ(data.count_at(HdrHistogram::SlotIndexOf(Units(1.0))), 0u);
  EXPECT_EQ(data.min(), Units(100.0));
}

TEST(MetricsRegistryDeathTest, RejectsNegativeSample) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist");
  EXPECT_DEATH(h.Observe(-1e-9), "histogram sample must be finite and in");
}

TEST(MetricsRegistryDeathTest, RejectsNaNSample) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist");
  EXPECT_DEATH(h.Observe(std::numeric_limits<double>::quiet_NaN()),
               "histogram sample must be finite and in");
}

// The HdrHistogram error bound holds through the registry: the same
// samples split over any number of pool workers report percentiles within
// one relative slot width (2^-7) above the true percentile of the units.
TEST(MetricsRegistryTest, PercentilesWithinSlotBoundAcrossThreadCounts) {
  constexpr size_t kSamples = 20000;
  Random rng(20240607);
  std::vector<double> values(kSamples);
  for (double& v : values) {
    // Log-uniform over ~2^-16 .. 2^24: exact slots, wide slots and the
    // 256-unit boundary all see samples.
    v = std::exp2(rng.NextDouble() * 40.0 - 16.0);
  }
  std::vector<uint64_t> units(kSamples);
  unsigned __int128 unit_sum = 0;
  for (size_t i = 0; i < kSamples; ++i) {
    units[i] = Units(values[i]);
    unit_sum += units[i];
  }
  std::sort(units.begin(), units.end());

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    MetricsRegistry registry;
    Histogram h = registry.GetHistogram("test.hist");
    ThreadPool pool(threads);
    pool.ParallelFor(0, kSamples, 64, [&](size_t i) { h.Observe(values[i]); });
    const HdrHistogram data = registry.Snapshot().histograms.at(0).data;
    EXPECT_EQ(data.count(), kSamples) << threads << " threads";
    EXPECT_EQ(data.sum(), static_cast<double>(unit_sum)) << threads << " threads";
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
      const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * kSamples));
      const uint64_t truth = units[rank - 1];
      const uint64_t reported = data.ValueAtPercentile(p);
      EXPECT_GE(reported, truth) << "p" << p << " at " << threads << " threads";
      // reported <= truth * (1 + 2^-7), in integers.
      EXPECT_LE(reported, truth + truth / 128) << "p" << p << " at " << threads
                                               << " threads";
    }
  }
}

// Writers publish new slot ranges while another thread snapshots: the
// snapshot reads only atomics (TSan runs this), and each snapshot's count
// only ever grows.
TEST(MetricsRegistryTest, SnapshotWhileRecordingIntoFreshSlots) {
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 3000;
  constexpr int kOctaves = 60;
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("test.hist");
  std::atomic<size_t> running{kWriters};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        // Octave (i + w) % 60 spans units 2^0 .. 2^59, i.e. values from
        // 2^-20 to 2^39 (< 1e12), so every writer touches every range.
        const int octave = static_cast<int>((i + w) % kOctaves);
        h.Observe(std::ldexp(1.0 + static_cast<double>(i % 7) / 8.0, octave - 20));
      }
      running.fetch_sub(1);
    });
  }
  uint64_t last_count = 0;
  size_t snapshots = 0;
  while (running.load() > 0 || snapshots == 0) {
    const HdrHistogram data = registry.Snapshot().histograms.at(0).data;
    EXPECT_GE(data.count(), last_count);
    last_count = data.count();
    ++snapshots;
  }
  for (std::thread& t : writers) t.join();
  const HdrHistogram data = registry.Snapshot().histograms.at(0).data;
  EXPECT_EQ(data.count(), kWriters * kPerWriter);
  uint64_t slot_total = 0;
  for (size_t i = 0; i < HdrHistogram::kNumSlots; ++i) slot_total += data.count_at(i);
  EXPECT_EQ(slot_total, data.count());
  EXPECT_EQ(data.min(), Units(std::ldexp(1.0, -20)));
}

TEST(MetricsRegistryTest, ReRegisteringReturnsSameMetric) {
  MetricsRegistry registry;
  Counter a = registry.GetCounter("dup");
  Counter b = registry.GetCounter("dup");
  a.Increment();
  b.Increment();
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 2u);
}

TEST(MetricsRegistryTest, SnapshotSortsByName) {
  MetricsRegistry registry;
  registry.GetCounter("zeta");
  registry.GetCounter("alpha");
  registry.GetCounter("mid");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha");
  EXPECT_EQ(snapshot.counters[1].name, "mid");
  EXPECT_EQ(snapshot.counters[2].name, "zeta");
}

TEST(MetricsRegistryTest, ResetZeroesEverythingKeepsHandles) {
  MetricsRegistry registry;
  Counter c = registry.GetCounter("c");
  Histogram h = registry.GetHistogram("h");
  c.Increment();
  h.Observe(0.5);
  registry.Reset();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters[0].value, 0u);
  EXPECT_EQ(snapshot.histograms[0].data.count(), 0u);
  // Handles stay live after Reset.
  c.Increment();
  h.Observe(0.5);
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters[0].value, 1u);
  EXPECT_EQ(snapshot.histograms[0].data.count(), 1u);
}

TEST(MetricsRegistryTest, IsTimingMetricNamingConvention) {
  EXPECT_TRUE(obs::IsTimingMetric("jxp.merge.cpu_ms"));
  EXPECT_TRUE(obs::IsTimingMetric("bench.wall_seconds"));
  EXPECT_TRUE(obs::IsTimingMetric("jxp.qp.serve_ns"));
  EXPECT_FALSE(obs::IsTimingMetric("jxp.meetings"));
  EXPECT_FALSE(obs::IsTimingMetric("jxp.meeting.wire_bytes"));
  // Suffix must be the whole final segment-ending, not a substring.
  EXPECT_FALSE(obs::IsTimingMetric("jxp.qp.terms"));
}

TEST(MetricsRegistryTest, MetricNameViolationAcceptsConformingNames) {
  for (const char* name :
       {"jxp.meetings", "jxp.merge.cpu_ms", "jxp.qp.queries",
        "markov.power_iteration.sweep_seconds", "jxp.qp.serve_ns",
        "a.b.c_d_e", "plain"}) {
    EXPECT_EQ(obs::MetricNameViolation(name), "") << name;
  }
}

TEST(MetricsRegistryTest, MetricNameViolationRejectsBadNames) {
  // One representative per violation class; the exact message wording is
  // not part of the contract, only non-emptiness.
  for (const char* name :
       {"",                        // empty
        "Jxp.meetings",            // uppercase
        "jxp.merge cpu",           // space
        "jxp.merge-cpu",           // hyphen
        ".leading", "trailing.",   // empty dot segment at an edge
        "jxp..merge",              // empty interior segment
        "jxp.merge.cpu_millis",    // near-miss timing suffix
        "jxp.merge.cpu_nanos",     // near-miss timing suffix
        "jxp.merge.cpu_secs",      // near-miss timing suffix
        "jxp.qp.serve_latency",    // near-miss timing suffix
        "jxp.qp.serve_time"}) {    // near-miss timing suffix
    EXPECT_NE(obs::MetricNameViolation(name), "") << "'" << name << "'";
  }
}

// Registry self-check: every metric name the library actually registers
// must conform, so the timing-metric filter in ToJsonLines(false) is
// provably aligned with the naming convention. Exercised here against the
// global registry as left by whatever instrumentation linked into this
// binary; serving_test.cc repeats it after driving the full query path.
TEST(MetricsRegistryTest, GlobalRegistryNamesConformToConvention) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& c : snapshot.counters) {
    EXPECT_EQ(obs::MetricNameViolation(c.name), "") << c.name;
  }
  for (const auto& h : snapshot.histograms) {
    EXPECT_EQ(obs::MetricNameViolation(h.name), "") << h.name;
  }
}

// The determinism contract: the same multiset of observations, split across
// any number of pool workers, must merge into a byte-identical snapshot.
TEST(MetricsRegistryTest, SnapshotDeterministicAcrossThreadCounts) {
  const size_t kItems = 4096;
  std::string reference;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    MetricsRegistry registry;
    Counter items = registry.GetCounter("det.items");
    Counter weighted = registry.GetCounter("det.weighted");
    Histogram values = registry.GetHistogram("det.values");
    Histogram wide = registry.GetHistogram("det.wide");
    ThreadPool pool(threads);
    pool.ParallelFor(0, kItems, 64, [&](size_t i) {
      items.Increment();
      weighted.Increment(i % 7);
      // Irrational-ish spread of doubles; identical multiset every run.
      values.Observe(std::fmod(static_cast<double>(i) * 0.6180339887, 2.5));
      wide.Observe(static_cast<double>((i * i) % 30011));
    });
    const std::string lines = registry.Snapshot().ToJsonLines(/*include_timing=*/false);
    if (reference.empty()) {
      reference = lines;
      ASSERT_NE(reference.find("\"p999\""), std::string::npos) << reference;
    } else {
      EXPECT_EQ(lines, reference) << "snapshot differs at " << threads << " threads";
    }
  }
}

// Registration from pool workers racing with recording must be safe (the
// TSan CI job runs this).
TEST(MetricsRegistryTest, ConcurrentRegistrationAndRecording) {
  MetricsRegistry registry;
  ThreadPool pool(8);
  pool.ParallelFor(0, 512, 1, [&](size_t i) {
    Counter c = registry.GetCounter("concurrent.counter" + std::to_string(i % 16));
    c.Increment();
    Histogram h = registry.GetHistogram("concurrent.hist" + std::to_string(i % 16));
    h.Observe(static_cast<double>(i % 3));
  });
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 16u);
  uint64_t total = 0;
  for (const auto& c : snapshot.counters) total += c.value;
  EXPECT_EQ(total, 512u);
  uint64_t observations = 0;
  for (const auto& h : snapshot.histograms) observations += h.data.count();
  EXPECT_EQ(observations, 512u);
}

TEST(MetricsSnapshotTest, ToJsonLinesFiltersTimingMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Increment();
  registry.GetHistogram("a.cpu_ms").Observe(0.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const std::string with_timing = snapshot.ToJsonLines(true);
  const std::string without_timing = snapshot.ToJsonLines(false);
  EXPECT_NE(with_timing.find("a.cpu_ms"), std::string::npos);
  EXPECT_EQ(without_timing.find("a.cpu_ms"), std::string::npos);
  EXPECT_NE(without_timing.find("a.count"), std::string::npos);
}

// The export format, field order included. Samples 1..4: the median's slot
// (2^21 units) tops out at 2113535 units; p90 and up clamp to the max.
TEST(MetricsSnapshotTest, HistogramJsonLineIsGolden) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("g.values");
  for (const double v : {4.0, 1.0, 3.0, 2.0}) h.Observe(v);
  registry.GetHistogram("g.empty");  // No samples: no line.
  EXPECT_EQ(registry.Snapshot().ToJsonLines(),
            "{\"type\":\"histogram\",\"name\":\"g.values\",\"count\":4,\"sum\":10,"
            "\"mean\":2.5,\"min\":1,\"max\":4,\"p50\":2.0156240463256836,\"p90\":4,"
            "\"p99\":4,\"p999\":4}\n");
}

}  // namespace
}  // namespace jxp
