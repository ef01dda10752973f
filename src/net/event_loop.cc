#include "net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace jxp {
namespace net {

EventLoop::EventLoop() : epoch_(std::chrono::steady_clock::now()) {
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  JXP_CHECK(ep >= 0);
  epoll_.reset(ep);

  int pipe_fds[2];
  JXP_CHECK(::pipe2(pipe_fds, O_CLOEXEC | O_NONBLOCK) == 0);
  wakeup_reader_.reset(pipe_fds[0]);
  wakeup_writer_.reset(pipe_fds[1]);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_reader_.get();
  JXP_CHECK(::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_reader_.get(), &ev) == 0);
}

EventLoop::~EventLoop() = default;

uint64_t EventLoop::NowMs() const {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - epoch_)
                                   .count());
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  if (fds_.count(fd) != 0) {
    return Status::AlreadyExists("fd already registered");
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(ADD): ") + strerror(errno));
  }
  fds_.emplace(fd, std::move(callback));
  return Status::OK();
}

Status EventLoop::Remove(int fd) {
  if (fds_.erase(fd) == 0) return Status::NotFound("fd not registered");
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Status::IOError(std::string("epoll_ctl(DEL): ") + strerror(errno));
  }
  return Status::OK();
}

EventLoop::TimerId EventLoop::AddTimer(uint64_t delay_ms, TimerCallback callback) {
  const TimerId id = next_timer_id_++;
  const uint64_t deadline = NowMs() + delay_ms;
  wheel_[SlotOf(deadline)].push_back(Timer{id, deadline, std::move(callback)});
  ++pending_timers_;
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  for (auto& slot : wheel_) {
    for (auto it = slot.begin(); it != slot.end(); ++it) {
      if (it->id == id) {
        slot.erase(it);
        --pending_timers_;
        return;
      }
    }
  }
}

void EventLoop::FireExpiredTimers(uint64_t now_ms) {
  if (pending_timers_ == 0) {
    last_tick_ = now_ms / kTickMs;
    return;
  }
  const uint64_t now_tick = now_ms / kTickMs;
  // Sweep at most one full wheel revolution: every slot that could hold an
  // expired timer is covered, and deadlines further out re-park in place.
  // The last swept tick is swept again: a sweep early in a tick leaves that
  // tick's later deadlines parked in its slot.
  const uint64_t first = last_tick_;
  const uint64_t span = now_tick >= first ? now_tick - first + 1 : 0;
  const uint64_t sweeps = std::min<uint64_t>(span, kWheelSlots);
  // Expired callbacks may AddTimer (re-arm); collect first, then run, so a
  // re-armed timer landing in a swept slot is not fired in the same pass.
  std::vector<Timer> expired;
  for (uint64_t i = 0; i < sweeps; ++i) {
    auto& slot = wheel_[static_cast<size_t>((first + i) % kWheelSlots)];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->deadline_ms <= now_ms) {
        expired.push_back(std::move(*it));
        it = slot.erase(it);
        --pending_timers_;
      } else {
        ++it;
      }
    }
  }
  last_tick_ = now_tick;
  std::sort(expired.begin(), expired.end(), [](const Timer& a, const Timer& b) {
    return a.deadline_ms != b.deadline_ms ? a.deadline_ms < b.deadline_ms
                                          : a.id < b.id;
  });
  for (Timer& timer : expired) timer.callback();
}

int EventLoop::TimeoutUntilNextTimer(uint64_t now_ms, int fallback_ms) const {
  if (pending_timers_ == 0) return fallback_ms;
  uint64_t earliest = std::numeric_limits<uint64_t>::max();
  for (const auto& slot : wheel_) {
    for (const Timer& timer : slot) earliest = std::min(earliest, timer.deadline_ms);
  }
  if (earliest <= now_ms) return 0;
  const uint64_t wait = earliest - now_ms;
  const uint64_t cap = fallback_ms < 0 ? std::numeric_limits<int>::max()
                                       : static_cast<uint64_t>(fallback_ms);
  return static_cast<int>(std::min(wait, cap));
}

bool EventLoop::RunOnce(int max_wait_ms) {
  if (stopped_) return false;
  const int timeout = TimeoutUntilNextTimer(NowMs(), max_wait_ms);

  epoll_event events[64];
  int n;
  do {
    n = ::epoll_wait(epoll_.get(), events, 64, timeout);
  } while (n < 0 && errno == EINTR);
  JXP_CHECK(n >= 0);

  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeup_reader_.get()) {
      uint8_t drain[64];
      while (::read(fd, drain, sizeof(drain)) > 0) {
      }
      stopped_ = true;
      continue;
    }
    // Re-check registration: an earlier callback this round may have
    // removed this fd.
    const auto it = fds_.find(fd);
    if (it == fds_.end()) continue;
    it->second(events[i].events);
  }

  FireExpiredTimers(NowMs());
  return !stopped_;
}

void EventLoop::Run() {
  while (RunOnce(/*max_wait_ms=*/200)) {
  }
}

void EventLoop::Stop() {
  const uint8_t byte = 1;
  // Write is async-signal-safe; a full pipe still wakes the reader.
  [[maybe_unused]] const ssize_t rc = ::write(wakeup_writer_.get(), &byte, 1);
}

}  // namespace net
}  // namespace jxp
