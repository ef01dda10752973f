#include "obs/latency_recorder.h"

#include "common/check.h"
#include "obs/json_writer.h"

namespace jxp {
namespace obs {

const char* LatencyStageName(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kCacheLookup:
      return "cache_lookup";
    case LatencyStage::kPriming:
      return "priming";
    case LatencyStage::kDecode:
      return "decode";
    case LatencyStage::kScoring:
      return "scoring";
    case LatencyStage::kHeap:
      return "heap";
    case LatencyStage::kFanIn:
      return "fan_in";
    case LatencyStage::kTotal:
      return "total";
  }
  return "unknown";
}

void LatencyRecorder::Record(LatencyStage stage, uint64_t nanos) {
  if (!Enabled()) return;
  const size_t index = static_cast<size_t>(stage);
  JXP_CHECK_LT(index, kNumLatencyStages);
  std::lock_guard<std::mutex> lock(mutex_);
  stages_[index].Record(nanos);
}

HdrHistogram LatencyRecorder::StageSnapshot(LatencyStage stage) const {
  const size_t index = static_cast<size_t>(stage);
  JXP_CHECK_LT(index, kNumLatencyStages);
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_[index];
}

void LatencyRecorder::MergeFrom(const LatencyRecorder& other) {
  // Lock ordering: callers merge worker recorders into an aggregate from
  // one thread, so taking the two locks in argument order cannot deadlock
  // unless two threads merge two recorders into each other — don't.
  std::lock_guard<std::mutex> lock(mutex_);
  std::lock_guard<std::mutex> other_lock(other.mutex_);
  for (size_t i = 0; i < kNumLatencyStages; ++i) {
    stages_[i].MergeFrom(other.stages_[i]);
  }
}

void LatencyRecorder::WriteJsonFields(JsonWriter& writer, std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string key;
  for (size_t i = 0; i < kNumLatencyStages; ++i) {
    const HdrHistogram& h = stages_[i];
    if (h.count() == 0) continue;
    const char* name = LatencyStageName(static_cast<LatencyStage>(i));
    const auto field = [&](const char* suffix, uint64_t value) {
      key.assign(prefix);
      key += name;
      key += suffix;
      writer.Field(key, value);
    };
    field("_count", h.count());
    field("_p50_ns", h.ValueAtPercentile(50));
    field("_p90_ns", h.ValueAtPercentile(90));
    field("_p99_ns", h.ValueAtPercentile(99));
    field("_p999_ns", h.ValueAtPercentile(99.9));
    field("_max_ns", h.max());
    key.assign(prefix);
    key += name;
    key += "_mean_ns";
    writer.Field(key, h.mean());
  }
}

}  // namespace obs
}  // namespace jxp
