#ifndef JXP_NET_EVENT_LOOP_H_
#define JXP_NET_EVENT_LOOP_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/socket_util.h"

namespace jxp {
namespace net {

/// A single-threaded, level-triggered epoll reactor with a hashed timing
/// wheel (DESIGN.md §6k). One EventLoop drives one PeerDaemon: readiness
/// callbacks own all protocol state, so the daemon needs no locks.
///
/// Level-triggered on purpose: callbacks may leave bytes unread (e.g. the
/// frame assembler stops at a frame boundary before a blob handoff) and the
/// next poll re-reports readiness — no starvation bookkeeping.
///
/// Timers live on a 256-slot wheel keyed by deadline tick (4 ms
/// granularity); each slot holds the timers hashing to it with their full
/// deadline, so a sweep fires exactly the expired ones and re-parks the
/// rest (the classic "rounds" check, expressed as a deadline comparison).
/// Retry/backoff deadlines in the daemon are tens of milliseconds and up,
/// so 4 ms granularity is invisible.
class EventLoop {
 public:
  using FdCallback = std::function<void(uint32_t epoll_events)>;
  using TimerCallback = std::function<void()>;
  using TimerId = uint64_t;

  static constexpr uint64_t kTickMs = 4;
  static constexpr size_t kWheelSlots = 256;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...). The callback runs
  /// on every poll where the fd is ready, with the ready mask. The loop
  /// never closes registered fds; ownership stays with the caller.
  Status Add(int fd, uint32_t events, FdCallback callback);
  /// Unregisters `fd`. Safe to call from inside any callback (including the
  /// fd's own): dispatch re-checks registration before each callback.
  Status Remove(int fd);
  bool IsRegistered(int fd) const { return fds_.count(fd) != 0; }

  /// Schedules `callback` to fire once, `delay_ms` from now. Returns an id
  /// for CancelTimer. Safe to call from inside callbacks (including timer
  /// callbacks re-arming themselves).
  TimerId AddTimer(uint64_t delay_ms, TimerCallback callback);
  /// Cancels a pending timer; a no-op when the timer already fired.
  void CancelTimer(TimerId id);
  size_t pending_timers() const { return pending_timers_; }

  /// Milliseconds of monotonic time since loop construction. All timer
  /// deadlines are in this clock.
  uint64_t NowMs() const;

  /// Polls once: waits up to `max_wait_ms` (clipped by the next timer
  /// deadline), dispatches ready fds, then fires expired timers. Returns
  /// false when Stop() was requested.
  bool RunOnce(int max_wait_ms);
  /// RunOnce until Stop().
  void Run();
  /// Makes Run()/RunOnce() return. Safe from any callback; also safe from
  /// another thread or a signal handler (it only writes a byte to the
  /// wakeup pipe, which is async-signal-safe).
  void Stop();
  bool stopped() const { return stopped_; }

 private:
  struct Timer {
    TimerId id = 0;
    uint64_t deadline_ms = 0;
    TimerCallback callback;
  };

  size_t SlotOf(uint64_t deadline_ms) const {
    return static_cast<size_t>(deadline_ms / kTickMs) % kWheelSlots;
  }
  /// Fires every timer with deadline <= now, sweeping the slots from the
  /// last processed tick through now's tick.
  void FireExpiredTimers(uint64_t now_ms);
  /// Milliseconds until the earliest pending deadline (0 when overdue);
  /// `fallback_ms` when no timers are pending.
  int TimeoutUntilNextTimer(uint64_t now_ms, int fallback_ms) const;

  UniqueFd epoll_;
  UniqueFd wakeup_reader_;
  UniqueFd wakeup_writer_;
  std::unordered_map<int, FdCallback> fds_;
  std::array<std::vector<Timer>, kWheelSlots> wheel_;
  size_t pending_timers_ = 0;
  uint64_t next_timer_id_ = 1;
  uint64_t last_tick_ = 0;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_EVENT_LOOP_H_
