#include "obs/latency_recorder.h"

#include "common/check.h"

namespace jxp {
namespace obs {

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

}  // namespace obs
}  // namespace jxp
