#include "net/meeting_scheduler.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "net/event_loop.h"
#include "net/peer_directory.h"

namespace jxp {
namespace net {
namespace {

/// Runs the loop for `ms` of wall clock via a stop timer; scheduler ticks
/// fire in between. Each test builds a fresh loop, so one run per loop.
void RunLoopFor(EventLoop& loop, uint64_t ms) {
  loop.AddTimer(ms, [&loop] { loop.Stop(); });
  loop.Run();
}

MeetingSchedulerOptions FastOptions() {
  MeetingSchedulerOptions options;
  options.enabled = true;
  options.interval_ms = 10;
  options.jitter_ms = 5;
  return options;
}

TEST(MeetingSchedulerTest, StateMachine) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);
  MeetingScheduler scheduler(&loop, &directory, FastOptions(), /*rng_seed=*/1,
                             [](const PeerDirectory::Entry&) { return MeetOutcome::kApplied; });

  EXPECT_EQ(scheduler.state(), SchedulerState::kIdle);
  scheduler.Start();
  EXPECT_EQ(scheduler.state(), SchedulerState::kRunning);
  scheduler.Start();  // Idempotent.
  EXPECT_EQ(scheduler.state(), SchedulerState::kRunning);
  EXPECT_EQ(loop.pending_timers(), 1u) << "a running scheduler arms one tick";
  scheduler.Drain();
  EXPECT_EQ(scheduler.state(), SchedulerState::kDrained);
  EXPECT_EQ(loop.pending_timers(), 0u);

  // kDrained is terminal: Start does not move a drained scheduler.
  scheduler.Start();
  EXPECT_EQ(scheduler.state(), SchedulerState::kDrained);

  // An idle scheduler drains directly.
  MeetingScheduler idle(&loop, &directory, FastOptions(), /*rng_seed=*/2,
                        [](const PeerDirectory::Entry&) { return MeetOutcome::kApplied; });
  idle.Drain();
  EXPECT_EQ(idle.state(), SchedulerState::kDrained);
}

TEST(MeetingSchedulerTest, TicksMeetPartnersFromTheDirectory) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);
  directory.ObserveDirect(/*peer_id=*/1, /*port=*/1111, /*now_ms=*/0);

  int meetings = 0;
  uint32_t partner = 0;
  MeetingScheduler scheduler(&loop, &directory, FastOptions(), /*rng_seed=*/7,
                             [&](const PeerDirectory::Entry& entry) {
                               ++meetings;
                               partner = entry.peer_id;
                               return MeetOutcome::kApplied;
                             });
  scheduler.Start();
  RunLoopFor(loop, 200);

  EXPECT_GE(meetings, 3);
  EXPECT_EQ(partner, 1u);
  const MeetingSchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.meetings_started, static_cast<uint64_t>(meetings));
  EXPECT_EQ(stats.meetings_applied, static_cast<uint64_t>(meetings));
  EXPECT_EQ(stats.ticks, stats.meetings_started);
  EXPECT_EQ(stats.skips_no_partner, 0u);
  EXPECT_EQ(stats.skips_backoff, 0u);
  EXPECT_EQ(stats.backoffs_armed, 0u);
}

TEST(MeetingSchedulerTest, EmptyDirectoryTicksSkipWithoutMeeting) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);

  int meetings = 0;
  MeetingScheduler scheduler(&loop, &directory, FastOptions(), /*rng_seed=*/3,
                             [&](const PeerDirectory::Entry&) {
                               ++meetings;
                               return MeetOutcome::kApplied;
                             });
  scheduler.Start();
  RunLoopFor(loop, 100);

  EXPECT_EQ(meetings, 0);
  EXPECT_GE(scheduler.stats().ticks, 2u);
  EXPECT_EQ(scheduler.stats().skips_no_partner, scheduler.stats().ticks);
  EXPECT_EQ(scheduler.stats().meetings_started, 0u);
}

TEST(MeetingSchedulerTest, DeclineArmsAPerPartnerBackoff) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);
  directory.ObserveDirect(1, 1111, 0);

  MeetingSchedulerOptions options = FastOptions();
  options.jitter_ms = 0;
  options.backoff_initial_ms = 10000;  // Longer than the test: one decline blocks.

  MeetingScheduler scheduler(&loop, &directory, options, /*rng_seed=*/5,
                             [](const PeerDirectory::Entry&) { return MeetOutcome::kDeclined; });
  scheduler.Start();
  RunLoopFor(loop, 150);

  const MeetingSchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.meetings_started, 1u) << "the partner must stay inside its back-off";
  EXPECT_EQ(stats.declines, 1u);
  EXPECT_EQ(stats.backoffs_armed, 1u);
  EXPECT_GE(stats.skips_backoff, 3u);
}

TEST(MeetingSchedulerTest, FailuresBackOffEachPartnerIndependently) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);
  directory.ObserveDirect(1, 1111, 0);
  directory.ObserveDirect(2, 2222, 0);

  MeetingSchedulerOptions options = FastOptions();
  options.backoff_initial_ms = 10000;

  MeetingScheduler scheduler(&loop, &directory, options, /*rng_seed=*/9,
                             [](const PeerDirectory::Entry&) { return MeetOutcome::kDialFailed; });
  scheduler.Start();
  RunLoopFor(loop, 400);

  // Each partner fails exactly once, then sits in its own back-off window.
  const MeetingSchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.meetings_started, 2u);
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.backoffs_armed, 2u);
  EXPECT_GE(stats.skips_backoff, 1u);
}

TEST(MeetingSchedulerTest, AppliedMeetingClearsTheBackoff) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);
  directory.ObserveDirect(1, 1111, 0);

  MeetingSchedulerOptions options = FastOptions();
  options.jitter_ms = 0;
  options.backoff_initial_ms = 30;

  int calls = 0;
  MeetingScheduler scheduler(&loop, &directory, options, /*rng_seed=*/11,
                             [&](const PeerDirectory::Entry&) {
                               ++calls;
                               return calls == 1 ? MeetOutcome::kDeclined
                                                 : MeetOutcome::kApplied;
                             });
  scheduler.Start();
  RunLoopFor(loop, 300);

  const MeetingSchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.declines, 1u);
  EXPECT_EQ(stats.backoffs_armed, 1u) << "success must clear the back-off for good";
  EXPECT_GE(stats.meetings_applied, 5u);
}

TEST(MeetingSchedulerTest, DrainInsideTheMeetCallbackStopsRearming) {
  EventLoop loop;
  PeerDirectory directory(/*self_id=*/0);
  directory.ObserveDirect(1, 1111, 0);

  // A scheduler drained while its meeting runs must not re-arm the tick
  // that meeting came from.
  MeetingScheduler* handle = nullptr;
  MeetingScheduler scheduler(&loop, &directory, FastOptions(), /*rng_seed=*/13,
                             [&](const PeerDirectory::Entry&) {
                               handle->Drain();
                               return MeetOutcome::kApplied;
                             });
  handle = &scheduler;
  scheduler.Start();
  RunLoopFor(loop, 150);

  EXPECT_EQ(scheduler.state(), SchedulerState::kDrained);
  EXPECT_EQ(scheduler.stats().ticks, 1u);
  EXPECT_EQ(scheduler.stats().meetings_started, 1u);
  EXPECT_EQ(scheduler.stats().meetings_applied, 1u);
  EXPECT_EQ(loop.pending_timers(), 0u) << "a drained scheduler leaves no timer armed";
}

}  // namespace
}  // namespace net
}  // namespace jxp
