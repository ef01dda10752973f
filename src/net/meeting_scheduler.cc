#include "net/meeting_scheduler.h"

#include <algorithm>
#include <utility>

namespace jxp {
namespace net {

MeetingScheduler::MeetingScheduler(EventLoop* loop, const PeerDirectory* directory,
                                   MeetingSchedulerOptions options, uint64_t rng_seed,
                                   MeetFn meet)
    : loop_(loop),
      directory_(directory),
      options_(options),
      rng_(rng_seed),
      meet_(std::move(meet)) {}

MeetingScheduler::~MeetingScheduler() {
  if (timer_ != 0) loop_->CancelTimer(timer_);
}

void MeetingScheduler::Start() {
  if (state_ != SchedulerState::kIdle) return;
  state_ = SchedulerState::kRunning;
  Arm();
}

void MeetingScheduler::Drain() {
  if (state_ == SchedulerState::kDrained) return;
  state_ = SchedulerState::kDrained;
  if (timer_ != 0) {
    loop_->CancelTimer(timer_);
    timer_ = 0;
  }
}

uint64_t MeetingScheduler::NextDelayMs() {
  uint64_t delay = options_.interval_ms;
  if (options_.jitter_ms > 0) delay += rng_.NextBounded(options_.jitter_ms + 1);
  return std::max<uint64_t>(delay, 1);
}

void MeetingScheduler::Arm() {
  timer_ = loop_->AddTimer(NextDelayMs(), [this] {
    timer_ = 0;
    Tick();
  });
}

void MeetingScheduler::ArmBackoff(uint32_t partner_id) {
  Backoff& backoff = backoff_[partner_id];
  backoff.window_ms =
      backoff.window_ms == 0
          ? options_.backoff_initial_ms
          : std::min(backoff.window_ms * kBackoffMultiplier, kBackoffMaxMs);
  backoff.until_ms = loop_->NowMs() + backoff.window_ms;
  ++stats_.backoffs_armed;
}

void MeetingScheduler::Tick() {
  if (state_ != SchedulerState::kRunning) return;
  ++stats_.ticks;

  PeerDirectory::Entry partner;
  if (!directory_->SelectPartner(rng_, &partner)) {
    ++stats_.skips_no_partner;
    Arm();
    return;
  }
  const auto backoff = backoff_.find(partner.peer_id);
  if (backoff != backoff_.end() && loop_->NowMs() < backoff->second.until_ms) {
    ++stats_.skips_backoff;
    Arm();
    return;
  }

  ++stats_.meetings_started;
  switch (meet_(partner)) {
    case MeetOutcome::kApplied:
      ++stats_.meetings_applied;
      backoff_.erase(partner.peer_id);
      break;
    case MeetOutcome::kDeclined:
      ++stats_.declines;
      ArmBackoff(partner.peer_id);
      break;
    case MeetOutcome::kDialFailed:
    case MeetOutcome::kFailed:
      ++stats_.failures;
      ArmBackoff(partner.peer_id);
      break;
  }
  // The meeting (or the daemon handling control frames in between) may have
  // drained us; only a still-running scheduler re-arms.
  if (state_ == SchedulerState::kRunning) Arm();
}

}  // namespace net
}  // namespace jxp
