#ifndef JXP_COMMON_TIMER_H_
#define JXP_COMMON_TIMER_H_

#include <chrono>
#include <ctime>

namespace jxp {

/// Wall-clock stopwatch (steady clock).
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed wall time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed wall time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Monotonic wall clock in integer nanoseconds (CLOCK_MONOTONIC) — the
/// time base of the latency-observability layer (obs::HdrHistogram stage
/// samples and the open-loop load harness' arrival schedule), where the
/// double-seconds WallTimer would lose integer exactness.
inline uint64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID); times trace
/// spans and the meeting path, including Table 1's merge CPU cost (the
/// paper's "CPU time (in milliseconds)"), where the process-wide clock would
/// charge work other threads did concurrently.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(Now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Now(); }

  /// Elapsed CPU time of the calling thread in seconds.
  double ElapsedSeconds() const { return Now() - start_; }

  /// Elapsed CPU time of the calling thread in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  static double Now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

}  // namespace jxp

#endif  // JXP_COMMON_TIMER_H_
