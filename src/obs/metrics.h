#ifndef JXP_OBS_METRICS_H_
#define JXP_OBS_METRICS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/telemetry.h"

namespace jxp {
namespace obs {

class MetricsRegistry;

/// Handles vended by MetricsRegistry. Cheap to copy; a default-constructed
/// handle is a no-op. All operations are thread-safe (each thread writes
/// its own registry shard) and lock-free on the hot path.
class Counter {
 public:
  Counter() = default;
  void Increment(uint64_t n = 1);

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, uint32_t id) : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  uint32_t id_ = 0;
};

/// A distribution of non-negative samples, recorded into HdrHistogram slots
/// in fixed-point units of 2^-20: Observe(v) records the integer
/// floor(v * 2^20 + 0.5), so no call site picks bucket bounds.
///
/// Determinism contract: slot counts, the sample count, the unit sum and
/// min/max are integers, so merging thread shards is integer addition —
/// associative and commutative. Observing the same multiset of values, in
/// any order and split across any number of threads, yields a bit-identical
/// snapshot. The price is quantization: each sample is exact to 2^-20, and
/// percentiles carry HdrHistogram's relative slot width of 2^-7.
class Histogram {
 public:
  /// Fixed-point units per value unit (2^20).
  static constexpr double kUnitsPerValue = 1048576.0;
  /// Largest value Observe accepts (keeps a shard's unit sum inside uint64
  /// for any realistic sample count).
  static constexpr double kMaxValue = 1e12;

  Histogram() = default;
  /// Records one sample; `value` must be finite and in [0, kMaxValue].
  void Observe(double value);

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, uint32_t id) : registry_(registry), id_(id) {}
  MetricsRegistry* registry_ = nullptr;
  uint32_t id_ = 0;
};

/// A deterministic point-in-time view of a registry: every metric merged
/// across all thread shards, sorted by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    /// Samples in units of 2^-20 (Histogram::kUnitsPerValue).
    HdrHistogram data;
  };

  std::vector<CounterValue> counters;
  std::vector<HistogramValue> histograms;

  /// Serializes the snapshot as JSON lines (one '\n'-terminated line per
  /// metric, metrics sorted by name within each kind, counters first, then
  /// histograms). A histogram line carries count, sum, mean,
  /// min, max, p50, p90, p99 and p999, converted back to value units;
  /// histograms without samples are skipped. When `include_timing` is
  /// false, metrics under the timing naming convention (IsTimingMetric) are
  /// skipped — the form the cross-thread-count determinism tests compare
  /// byte for byte.
  std::string ToJsonLines(bool include_timing = true) const;
};

/// Naming convention: metrics measuring elapsed time carry an "_ms",
/// "_seconds", or "_ns" suffix. They are the only metrics whose values vary
/// from run to run; everything else is a pure function of the simulated
/// work and is bit-identical across runs and thread counts (see DESIGN.md
/// §6d and docs/METRICS.md).
bool IsTimingMetric(std::string_view name);

/// Registry hygiene check behind the convention above: returns an empty
/// string when `name` conforms, else a human-readable reason. Enforced
/// rules: lowercase [a-z0-9_.] only, non-empty dot-separated segments, and
/// no near-miss timing suffix ("_millis", "_nanos", "_secs", "_latency",
/// "_time", ... ) — a metric that measures elapsed time must end in
/// exactly "_ms", "_seconds", or "_ns" so ToJsonLines(include_timing=false)
/// provably excludes it. Tests snapshot the registry and run every
/// registered name through this check (tests/obs/metrics_test.cc,
/// tests/qp/serving_test.cc).
std::string MetricNameViolation(std::string_view name);

/// A registry of named counters and histograms.
///
/// Writes go to thread-local shards: each (thread, registry) pair owns a
/// shard, so recording needs no locks and no cross-thread RMW contention —
/// safe inside ThreadPool::ParallelFor.
/// Shard cells are relaxed atomics (single writer each), so Snapshot() may
/// run concurrently with writers without data races; for a *deterministic*
/// snapshot, call it from a point with a happens-before edge to the writers
/// (e.g. after ParallelFor returns — the pool joins every block).
///
/// Metric registration (GetCounter/GetHistogram) takes a lock and
/// may be called from any thread; re-registering the same name returns the
/// same metric (the kind must match). Capacity is fixed at kMaxMetrics per
/// registry.
class MetricsRegistry {
 public:
  static constexpr size_t kMaxMetrics = 256;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter GetCounter(std::string_view name);
  Histogram GetHistogram(std::string_view name);

  /// Merges all shards into a deterministic snapshot (see class comment).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric, keeping registrations and shards (outstanding
  /// handles stay valid). Requires no concurrent writers.
  void Reset();

  /// The process-wide registry the built-in instrumentation records into.
  static MetricsRegistry& Global();

 private:
  friend class Counter;
  friend class Histogram;

  enum class Kind { kCounter, kHistogram };

  struct MetricInfo {
    std::string name;
    Kind kind = Kind::kCounter;
  };

  struct Shard;

  uint32_t Register(std::string_view name, Kind kind);
  Shard& LocalShard();
  void AddCounter(uint32_t id, uint64_t n);
  void ObserveHistogram(uint32_t id, double value);

  const uint64_t registry_id_;
  mutable std::mutex mutex_;
  std::vector<MetricInfo> metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace obs
}  // namespace jxp

#endif  // JXP_OBS_METRICS_H_
