#include "common/timer.h"

#include <gtest/gtest.h>

namespace jxp {
namespace {

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  // Burn a little wall time.
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i) * 1e-9;
  const double elapsed = timer.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_LT(elapsed, 10.0);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedSeconds() * 50);
}

TEST(WallTimerTest, ResetRestarts) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i) * 1e-9;
  const double before = timer.ElapsedSeconds();
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), before + 1e-3);
}

TEST(ThreadCpuTimerTest, MeasuresCallingThreadCpu) {
  ThreadCpuTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 5000000; ++i) sink += static_cast<double>(i) * 1e-9;
  const double busy = timer.ElapsedSeconds();
  EXPECT_GT(busy, 0.0);
  // The thread clock must not run while the thread sleeps.
  timer.Reset();
  timespec nap{0, 20 * 1000 * 1000};  // 20 ms.
  nanosleep(&nap, nullptr);
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

TEST(ThreadCpuTimerTest, MonotoneNonDecreasing) {
  ThreadCpuTimer timer;
  double last = 0;
  for (int round = 0; round < 5; ++round) {
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += static_cast<double>(i);
    const double now = timer.ElapsedSeconds();
    EXPECT_GE(now, last);
    last = now;
  }
}

}  // namespace
}  // namespace jxp
