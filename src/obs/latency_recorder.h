#ifndef JXP_OBS_LATENCY_RECORDER_H_
#define JXP_OBS_LATENCY_RECORDER_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/hdr_histogram.h"
#include "obs/telemetry.h"

namespace jxp {
namespace obs {

class JsonWriter;

/// The serving pipeline's per-query stages, in pipeline order. Fixed here
/// (not stringly-typed) so recording is an array index and every producer
/// and consumer agrees on the same stage set.
enum class LatencyStage : uint8_t {
  /// Result-cache probe (batch phase 1, or the concurrent path's probe).
  kCacheLookup = 0,
  /// Threshold priming: term primers + threshold-cache lookups.
  kPriming,
  /// Posting decode: cursor advancement, block seeks, and bound checks
  /// (MaxScore reports it as descent time minus scoring and heap time).
  kDecode,
  /// Canonical-order rescoring / score fusion of surviving candidates.
  kScoring,
  /// Top-k heap maintenance and final ranking.
  kHeap,
  /// Cross-peer fan-in: merging per-peer top-k lists and the final
  /// partial sort.
  kFanIn,
  /// End-to-end service time of one query (all stages plus glue).
  kTotal,
};
inline constexpr size_t kNumLatencyStages = 7;

/// Stable lowercase label ("cache_lookup", "priming", ...).
const char* LatencyStageName(LatencyStage stage);

/// Owns one HdrHistogram per LatencyStage. Record() is thread-safe
/// (mutex-guarded — recording is a handful of calls per query, not a
/// per-posting operation; for contention-free recording give each worker
/// its own recorder and MergeFrom them afterwards, which yields the same
/// bit-identical state as recording into one). Gated on obs::Enabled():
/// when telemetry is off (or compiled out) Record is a no-op, so the
/// latency layer obeys the same zero-cost-off switch as the metrics
/// registry.
class LatencyRecorder {
 public:
  LatencyRecorder() = default;
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  /// Records `nanos` into the stage's histogram (no-op when telemetry is
  /// disabled).
  void Record(LatencyStage stage, uint64_t nanos);

  /// Point-in-time copy of one stage's histogram.
  HdrHistogram StageSnapshot(LatencyStage stage) const;

  /// Merges another recorder's histograms into this one.
  void MergeFrom(const LatencyRecorder& other);

  /// Appends per-stage percentile fields to `writer`:
  ///   <prefix><stage>_{count,p50_ns,p90_ns,p99_ns,p999_ns,max_ns,mean_ns}
  /// Empty stages are skipped. Field order follows the stage enum, so the
  /// same recorder state always serializes to the same bytes.
  void WriteJsonFields(JsonWriter& writer, std::string_view prefix = "") const;

 private:
  mutable std::mutex mutex_;
  std::array<HdrHistogram, kNumLatencyStages> stages_;
};

}  // namespace obs
}  // namespace jxp

#endif  // JXP_OBS_LATENCY_RECORDER_H_
