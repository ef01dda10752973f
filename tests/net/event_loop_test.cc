#include "net/event_loop.h"

#include <unistd.h>

#include <sys/epoll.h>

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace jxp {
namespace net {
namespace {

TEST(EventLoopTest, TimerFires) {
  EventLoop loop;
  bool fired = false;
  loop.AddTimer(5, [&] {
    fired = true;
    loop.Stop();
  });
  loop.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoopTest, TimersFireInDeadlineOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.AddTimer(40, [&] {
    order.push_back(2);
    loop.Stop();
  });
  loop.AddTimer(5, [&] { order.push_back(1); });
  loop.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  EventLoop loop;
  bool cancelled_fired = false;
  const EventLoop::TimerId id = loop.AddTimer(5, [&] { cancelled_fired = true; });
  loop.CancelTimer(id);
  loop.AddTimer(20, [&] { loop.Stop(); });
  loop.Run();
  EXPECT_FALSE(cancelled_fired);
}

TEST(EventLoopTest, TimerCanReArmItself) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count >= 3) {
      loop.Stop();
      return;
    }
    loop.AddTimer(2, tick);
  };
  loop.AddTimer(2, tick);
  loop.Run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoopTest, FarTimerDoesNotFireEarly) {
  // A deadline several wheel revolutions out (the wheel covers ~1 s) must
  // survive sweeps that pass its slot without reaching its deadline.
  EventLoop loop;
  bool fired = false;
  loop.AddTimer(60000, [&] { fired = true; });
  for (int i = 0; i < 5; ++i) loop.RunOnce(5);
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.pending_timers(), 1u);
}

TEST(EventLoopTest, WakeupBeforeDeadlineInItsTickDoesNotDelayTheTimer) {
  // An fd wakes the loop inside the timer's 4 ms tick but before its
  // deadline. The sweep then leaves the timer parked, and the next sweep
  // must still reach its slot: a wheel that moves past it fires the timer
  // one revolution (~1 s) late. A sweep lands in that window only when the
  // thread is not preempted, so attempts repeat until one does.
  constexpr uint64_t kSlackMs = 2 * EventLoop::kTickMs;
  EventLoop loop;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  ASSERT_TRUE(loop.Add(pipe_fds[0], EPOLLIN, [&](uint32_t) {
    uint8_t byte;
    (void)!::read(pipe_fds[0], &byte, 1);
  }).ok());
  bool landed = false;
  for (int attempt = 0; attempt < 200 && !landed; ++attempt) {
    // A deadline on the last millisecond of its tick leaves a 3 ms window.
    const uint64_t now = loop.NowMs();
    const uint64_t deadline = (now / EventLoop::kTickMs + 5) * EventLoop::kTickMs + 3;
    uint64_t fired_at = 0;
    const EventLoop::TimerId id =
        loop.AddTimer(deadline - now, [&] { fired_at = loop.NowMs(); });
    if (loop.NowMs() != now) {  // The deadline is not the one computed.
      loop.CancelTimer(id);
      continue;
    }
    const uint64_t tick_start = deadline - deadline % EventLoop::kTickMs;
    while (loop.NowMs() < tick_start) {
    }
    const uint8_t byte = 1;
    ASSERT_EQ(::write(pipe_fds[1], &byte, 1), 1);
    loop.RunOnce(1000);
    if (fired_at != 0 || loop.NowMs() >= deadline) {  // Missed the window.
      loop.CancelTimer(id);
      continue;
    }
    landed = true;
    while (fired_at == 0 && loop.NowMs() <= deadline + 200) loop.RunOnce(1000);
    ASSERT_NE(fired_at, 0u) << "timer due at " << deadline << " ms did not fire";
    EXPECT_LE(fired_at, deadline + kSlackMs);
  }
  EXPECT_TRUE(landed) << "no wakeup landed before the deadline in its tick";
  EXPECT_EQ(loop.pending_timers(), 0u);
  ASSERT_TRUE(loop.Remove(pipe_fds[0]).ok());
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(EventLoopTest, FdCallbackRunsWhenReadable) {
  EventLoop loop;
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  std::vector<uint8_t> received;
  ASSERT_TRUE(loop.Add(pipe_fds[0], EPOLLIN, [&](uint32_t) {
    uint8_t byte = 0;
    if (::read(pipe_fds[0], &byte, 1) == 1) received.push_back(byte);
    loop.Stop();
  }).ok());
  const uint8_t byte = 0xab;
  ASSERT_EQ(::write(pipe_fds[1], &byte, 1), 1);
  loop.Run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 0xab);
  ASSERT_TRUE(loop.Remove(pipe_fds[0]).ok());
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(EventLoopTest, RemoveDuringDispatchIsSafe) {
  // Two ready fds; the first callback removes the second. Dispatch must
  // re-check registration and skip the removed fd's callback.
  EventLoop loop;
  int a[2], b[2];
  ASSERT_EQ(::pipe(a), 0);
  ASSERT_EQ(::pipe(b), 0);
  int b_fired = 0;
  ASSERT_TRUE(loop.Add(a[0], EPOLLIN, [&](uint32_t) {
    uint8_t byte;
    (void)!::read(a[0], &byte, 1);
    (void)loop.Remove(b[0]);
    loop.Stop();
  }).ok());
  ASSERT_TRUE(loop.Add(b[0], EPOLLIN, [&](uint32_t) { ++b_fired; }).ok());
  const uint8_t byte = 1;
  ASSERT_EQ(::write(a[1], &byte, 1), 1);
  ASSERT_EQ(::write(b[1], &byte, 1), 1);
  loop.RunOnce(100);
  EXPECT_FALSE(loop.IsRegistered(b[0]));
  EXPECT_EQ(b_fired, 0);
  (void)loop.Remove(a[0]);
  ::close(a[0]);
  ::close(a[1]);
  ::close(b[0]);
  ::close(b[1]);
}

TEST(EventLoopTest, StopFromAnotherThreadWakesBlockedLoop) {
  EventLoop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.Stop();
  });
  loop.Run();  // Would block forever without the wakeup pipe.
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoopTest, NowMsIsMonotonic) {
  EventLoop loop;
  const uint64_t t0 = loop.NowMs();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t t1 = loop.NowMs();
  EXPECT_GE(t1, t0 + 4);
}

}  // namespace
}  // namespace net
}  // namespace jxp
