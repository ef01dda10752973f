#ifndef JXP_P2P_FAULTS_H_
#define JXP_P2P_FAULTS_H_

#include <cstdint>

#include "common/random.h"
#include "p2p/network.h"

namespace jxp {
namespace p2p {

/// Deterministic, seed-driven fault model for the meeting protocol (the
/// Section 7 "dynamics at all levels" open problem): every meeting attempt
/// draws a fault schedule from a FaultPlan, and the whole fault sequence is
/// a pure function of the plan's seed — independent of thread count, because
/// all draws happen on the scheduling thread (like partner selection).
///
/// The injectable faults, and why each one preserves the paper's safety
/// theorem (scores never overestimate the true PageRank; DESIGN.md §6e):
///  - message drop: one direction's message is lost; the receiver applies
///    nothing (its state is simply older — every reachable state is safe);
///  - score-list truncation: the transfer aborts after a fraction of the
///    bytes; the receiver applies the prefix of the partner's page table,
///    which is an honest message from a peer with a smaller fragment;
///  - mid-meeting crash: one side crashes after sending but before applying
///    — the classic one-sided application; the survivor applies normally;
///  - stale-state resume: a crashed peer restarts from an earlier state_io
///    checkpoint — it re-enters an earlier state of its own safe trajectory
///    (world-score monotonicity restarts from there, safety is unaffected);
///  - transient partner-unavailable: the initiator retries up to
///    max_retries times; exhausted retries abandon the attempt entirely.
struct FaultPlan {
  /// Per-direction probability that a meeting message is lost in transit.
  double message_drop_probability = 0;
  /// Per-direction probability that a message transfer aborts part-way.
  double truncation_probability = 0;
  /// Fraction of the message that still arrives when truncated (the page
  /// table is cut to this fraction; the world node, at the tail of the
  /// message, is lost entirely).
  double truncation_keep_fraction = 0.5;
  /// Per-direction probability that one bit of the message flips in
  /// transit. Only meaningful under core::MeetingWireMode::kMeasured, where
  /// the frame checksum detects the damage and the receiver salvages the
  /// intact frame prefix; the analytic (kEstimated) mode has no bytes to
  /// flip and ignores the decision.
  double corruption_probability = 0;
  /// Per-side probability of a mid-meeting crash: the side sends its
  /// message but crashes before applying the partner's (one-sided
  /// application; the crashed side's state does not advance).
  double crash_probability = 0;
  /// Per-side probability that the peer enters the meeting having just
  /// restarted from its last state_io checkpoint (requires the simulation
  /// to be configured with a checkpoint directory).
  double stale_resume_probability = 0;
  /// Per-attempt probability that the selected partner is unreachable.
  double unavailable_probability = 0;
  /// Retries after the first failed contact attempt before the meeting is
  /// abandoned (so at most 1 + max_retries attempts).
  int max_retries = 3;
  /// Wire cost of one failed contact attempt (handshake probe), charged to
  /// the initiator as wasted traffic.
  double probe_bytes = 64;
  /// Seed of the fault stream; independent of the simulation seed so fault
  /// schedules can be varied while the meeting schedule stays fixed.
  uint64_t seed = 0xfa0175;

  /// True iff any fault can actually occur. A disabled plan injects nothing
  /// and draws no randomness, so the fault-off path is bit-identical to a
  /// build without the fault layer.
  bool Enabled() const {
    return message_drop_probability > 0 || truncation_probability > 0 ||
           corruption_probability > 0 || crash_probability > 0 ||
           stale_resume_probability > 0 || unavailable_probability > 0;
  }
};

/// The fault schedule of one meeting attempt. Default-constructed = clean
/// meeting (every fault off); JxpPeer::Meet with a clean decision performs
/// exactly the unfaulted protocol.
struct MeetingFaultDecision {
  /// Failed contact attempts before the meeting went ahead (or, when
  /// `abandoned`, before the initiator gave up).
  int failed_attempts = 0;
  /// All 1 + max_retries contact attempts failed: no meeting happens.
  bool abandoned = false;
  /// Message loss per direction ("to_X" = the message X was to receive).
  bool drop_to_initiator = false;
  bool drop_to_partner = false;
  /// Delivered fraction per direction; 1.0 = complete transfer.
  double keep_to_initiator = 1.0;
  double keep_to_partner = 1.0;
  /// Single-bit corruption per direction (measured wire mode): the flip
  /// lands in the byte at `corrupt_offset_*` (a fraction of the delivered
  /// message) at bit index `corrupt_bit_*`. All values are drawn on the
  /// scheduling thread, like every other fault, so the schedule stays a
  /// pure function of the plan seed.
  bool corrupt_to_initiator = false;
  bool corrupt_to_partner = false;
  double corrupt_offset_to_initiator = 0;
  double corrupt_offset_to_partner = 0;
  int corrupt_bit_to_initiator = 0;
  int corrupt_bit_to_partner = 0;
  /// Mid-meeting crash per side (the crashed side applies nothing).
  bool crash_initiator = false;
  bool crash_partner = false;
  /// Stale-state resume per side, applied by the simulation *before* the
  /// meeting runs.
  bool stale_resume_initiator = false;
  bool stale_resume_partner = false;

  bool Clean() const {
    return failed_attempts == 0 && !abandoned && !drop_to_initiator &&
           !drop_to_partner && keep_to_initiator >= 1.0 && keep_to_partner >= 1.0 &&
           !corrupt_to_initiator && !corrupt_to_partner && !crash_initiator &&
           !crash_partner && !stale_resume_initiator && !stale_resume_partner;
  }
};

/// Aggregate fault accounting (mirrored into the jxp.faults.* metrics).
/// Every field is a pure function of the plan seed and the meeting
/// sequence, so it is bit-identical across runs and thread counts.
struct FaultStats {
  uint64_t meetings_planned = 0;
  uint64_t faulty_meetings = 0;
  uint64_t message_drops = 0;
  uint64_t truncations = 0;
  uint64_t corruptions = 0;
  uint64_t crashes = 0;
  uint64_t stale_resumes = 0;
  uint64_t unavailable_retries = 0;
  uint64_t meetings_abandoned = 0;
  /// Bytes moved over the wire to no effect: dropped messages, truncated
  /// tails, messages applied by nobody because the receiver crashed, and
  /// probe messages of failed contact attempts.
  double wasted_bytes = 0;
};

/// Draws per-meeting fault schedules from a FaultPlan and keeps the
/// accounting. Not thread-safe: call NextMeeting / RecordWasted from the
/// scheduling thread only (the simulation draws each round's schedule
/// sequentially, exactly like selector and RNG state).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return enabled_; }

  /// Draws the fault schedule of the next meeting attempt between
  /// `initiator` and `partner`, updating the injector's counters and
  /// emitting a "fault" trace event when anything was injected.
  MeetingFaultDecision NextMeeting(PeerId initiator, PeerId partner);

  /// Folds wasted wire bytes (from a meeting outcome or probe overhead)
  /// into the stats and the jxp.faults.wasted_bytes histogram.
  void RecordWasted(double bytes);

  const FaultStats& stats() const { return stats_; }

 private:
  FaultPlan plan_;
  bool enabled_;
  Random rng_;
  FaultStats stats_;
};

}  // namespace p2p
}  // namespace jxp

#endif  // JXP_P2P_FAULTS_H_
