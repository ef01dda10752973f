#ifndef JXP_NET_MEETING_SCHEDULER_H_
#define JXP_NET_MEETING_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>

#include "common/random.h"
#include "net/event_loop.h"
#include "net/peer_directory.h"

namespace jxp {
namespace net {

struct MeetingSchedulerOptions {
  /// Autonomous mode master switch: when false the daemon never constructs
  /// a scheduler and meetings happen only on kMeetCommand (driver replay).
  /// An enabled scheduler sits in kIdle until a kStartRequest control frame
  /// arrives, which lets a driver bring a whole cluster up before any
  /// meeting fires.
  bool enabled = false;
  /// Base cadence between meeting attempts.
  uint64_t interval_ms = 50;
  /// Uniform jitter in [0, jitter_ms] added to every interval, drawn from
  /// the scheduler's seeded Random stream. Jitter desynchronizes daemons
  /// that started together (the thundering-herd of simultaneous mutual
  /// dials resolves by timeout, so fewer collisions = more meetings/sec).
  uint64_t jitter_ms = 25;
  /// Per-partner back-off after a decline or a failure: the first skip
  /// lasts backoff_initial_ms, each further one kBackoffMultiplier times
  /// longer, up to kBackoffMaxMs; any success clears it.
  uint64_t backoff_initial_ms = 100;
};

inline constexpr uint64_t kBackoffMultiplier = 2;
inline constexpr uint64_t kBackoffMaxMs = 2000;

/// Autonomous-mode state machine (DESIGN.md §6l):
///
///   kIdle --Start()--> kRunning --Drain()--> kDrained
///     |                                          ^
///     +------------------Drain()-----------------+
///
/// kDrained is terminal: a drained scheduler never meets again (the daemon
/// pairs it with quiesce, so inbound meetings decline too).
enum class SchedulerState : uint8_t {
  kIdle = 0,
  kRunning = 1,
  kDrained = 2,
};

struct MeetingSchedulerStats {
  /// Timer firings (every tick either attempts a meeting or skips).
  uint64_t ticks = 0;
  uint64_t meetings_started = 0;
  uint64_t meetings_applied = 0;
  uint64_t declines = 0;
  /// Dial failures + mid-meeting failures, as reported by the meet callback.
  uint64_t failures = 0;
  /// Ticks with no live partner in the directory.
  uint64_t skips_no_partner = 0;
  /// Ticks whose drawn partner was inside its back-off window.
  uint64_t skips_backoff = 0;
  /// Back-off windows armed (declines + failures).
  uint64_t backoffs_armed = 0;
};

/// What one attempted meeting came to, from the scheduler's point of view.
/// The daemon's MeetPeer classifies its outcome as one of these.
enum class MeetOutcome {
  kApplied,     // Meeting completed (possibly salvaged under chaos).
  kDeclined,    // Partner is quiesced.
  kDialFailed,  // Partner unreachable.
  kFailed,      // Mid-meeting IO/protocol failure.
};

/// Drives a daemon's autonomous meeting cadence on the event-loop timing
/// wheel (DESIGN.md §6l): each tick draws the next partner uniformly from
/// the live directory through a dedicated seeded Random stream, skips
/// partners inside their back-off window, runs the meeting via the
/// injected callback, and re-arms itself interval+jitter later. Single
/// threaded on the loop, like the daemon that owns it.
class MeetingScheduler {
 public:
  using MeetFn = std::function<MeetOutcome(const PeerDirectory::Entry&)>;

  /// `loop` and `directory` must outlive the scheduler. `meet` runs one
  /// outbound meeting with the drawn partner (the daemon binds MeetPeer).
  MeetingScheduler(EventLoop* loop, const PeerDirectory* directory,
                   MeetingSchedulerOptions options, uint64_t rng_seed, MeetFn meet);
  ~MeetingScheduler();
  MeetingScheduler(const MeetingScheduler&) = delete;
  MeetingScheduler& operator=(const MeetingScheduler&) = delete;

  /// kIdle -> kRunning: arms the next tick. No-op when already running; a
  /// drained scheduler stays drained.
  void Start();
  /// Terminal stop. Cancels the pending tick; with the daemon's quiesce
  /// this completes drain-and-quiesce (no new meetings out, declines in).
  void Drain();

  SchedulerState state() const { return state_; }
  const MeetingSchedulerStats& stats() const { return stats_; }

 private:
  struct Backoff {
    uint64_t until_ms = 0;
    uint64_t window_ms = 0;
  };

  void Arm();
  void Tick();
  /// interval_ms plus a jitter draw from the Random stream.
  uint64_t NextDelayMs();
  void ArmBackoff(uint32_t partner_id);

  EventLoop* loop_;
  const PeerDirectory* directory_;
  MeetingSchedulerOptions options_;
  Random rng_;
  MeetFn meet_;
  SchedulerState state_ = SchedulerState::kIdle;
  EventLoop::TimerId timer_ = 0;
  /// Ordered so back-off iteration (if ever needed) is deterministic.
  std::map<uint32_t, Backoff> backoff_;
  MeetingSchedulerStats stats_;
};

}  // namespace net
}  // namespace jxp

#endif  // JXP_NET_MEETING_SCHEDULER_H_
