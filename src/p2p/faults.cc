#include "p2p/faults.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace p2p {

namespace {

/// Fault-path observables (DESIGN.md §6e). All counters are pure functions
/// of the plan seed and the meeting sequence; wasted_bytes reuses the wire
/// bucket layout so it is directly comparable to jxp.meeting.wire_bytes.
struct FaultMetrics {
  obs::Counter message_drops =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.message_drops");
  obs::Counter truncations =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.truncations");
  obs::Counter corruptions =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.corruptions");
  obs::Counter crashes = obs::MetricsRegistry::Global().GetCounter("jxp.faults.crashes");
  obs::Counter stale_resumes =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.stale_resumes");
  obs::Counter retries =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.unavailable_retries");
  obs::Counter abandoned =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.meetings_abandoned");
  obs::Counter faulty_meetings =
      obs::MetricsRegistry::Global().GetCounter("jxp.faults.faulty_meetings");
  obs::Histogram wasted_bytes =
      obs::MetricsRegistry::Global().GetHistogram("jxp.faults.wasted_bytes");
};

FaultMetrics& GetFaultMetrics() {
  static FaultMetrics metrics;
  return metrics;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), enabled_(plan.Enabled()), rng_(plan.seed) {
  JXP_CHECK_GE(plan_.max_retries, 0);
  JXP_CHECK_GT(plan_.truncation_keep_fraction, 0.0);
  JXP_CHECK_LE(plan_.truncation_keep_fraction, 1.0);
}

MeetingFaultDecision FaultInjector::NextMeeting(PeerId initiator, PeerId partner) {
  MeetingFaultDecision decision;
  ++stats_.meetings_planned;
  if (!enabled_) return decision;

  // Contact phase: retry until the partner answers or the retry budget is
  // exhausted.
  if (plan_.unavailable_probability > 0) {
    for (int attempt = 0; attempt <= plan_.max_retries; ++attempt) {
      if (!rng_.NextBool(plan_.unavailable_probability)) break;
      ++decision.failed_attempts;
    }
    decision.abandoned = decision.failed_attempts > plan_.max_retries;
  }
  stats_.unavailable_retries += static_cast<uint64_t>(decision.failed_attempts);
  if (decision.abandoned) {
    ++stats_.meetings_abandoned;
  } else {
    // Transport and crash phase (only meaningful when the meeting happens).
    if (plan_.message_drop_probability > 0) {
      decision.drop_to_partner = rng_.NextBool(plan_.message_drop_probability);
      decision.drop_to_initiator = rng_.NextBool(plan_.message_drop_probability);
    }
    if (plan_.truncation_probability > 0) {
      if (rng_.NextBool(plan_.truncation_probability)) {
        decision.keep_to_partner = plan_.truncation_keep_fraction;
      }
      if (rng_.NextBool(plan_.truncation_probability)) {
        decision.keep_to_initiator = plan_.truncation_keep_fraction;
      }
    }
    if (plan_.corruption_probability > 0) {
      if (rng_.NextBool(plan_.corruption_probability)) {
        decision.corrupt_to_partner = true;
        decision.corrupt_offset_to_partner = rng_.NextDouble();
        decision.corrupt_bit_to_partner = static_cast<int>(rng_.NextInRange(0, 7));
      }
      if (rng_.NextBool(plan_.corruption_probability)) {
        decision.corrupt_to_initiator = true;
        decision.corrupt_offset_to_initiator = rng_.NextDouble();
        decision.corrupt_bit_to_initiator = static_cast<int>(rng_.NextInRange(0, 7));
      }
    }
    if (plan_.crash_probability > 0) {
      decision.crash_initiator = rng_.NextBool(plan_.crash_probability);
      decision.crash_partner = rng_.NextBool(plan_.crash_probability);
    }
    if (plan_.stale_resume_probability > 0) {
      decision.stale_resume_initiator = rng_.NextBool(plan_.stale_resume_probability);
      decision.stale_resume_partner = rng_.NextBool(plan_.stale_resume_probability);
    }
  }

  const uint64_t drops = static_cast<uint64_t>(decision.drop_to_initiator) +
                         static_cast<uint64_t>(decision.drop_to_partner);
  const uint64_t truncations = static_cast<uint64_t>(decision.keep_to_initiator < 1.0) +
                               static_cast<uint64_t>(decision.keep_to_partner < 1.0);
  const uint64_t corruptions = static_cast<uint64_t>(decision.corrupt_to_initiator) +
                               static_cast<uint64_t>(decision.corrupt_to_partner);
  const uint64_t crashes = static_cast<uint64_t>(decision.crash_initiator) +
                           static_cast<uint64_t>(decision.crash_partner);
  const uint64_t resumes = static_cast<uint64_t>(decision.stale_resume_initiator) +
                           static_cast<uint64_t>(decision.stale_resume_partner);
  stats_.message_drops += drops;
  stats_.truncations += truncations;
  stats_.corruptions += corruptions;
  stats_.crashes += crashes;
  stats_.stale_resumes += resumes;
  if (decision.Clean()) return decision;

  ++stats_.faulty_meetings;
  if (obs::Enabled()) {
    FaultMetrics& metrics = GetFaultMetrics();
    metrics.message_drops.Increment(drops);
    metrics.truncations.Increment(truncations);
    metrics.corruptions.Increment(corruptions);
    metrics.crashes.Increment(crashes);
    metrics.stale_resumes.Increment(resumes);
    metrics.retries.Increment(static_cast<uint64_t>(decision.failed_attempts));
    if (decision.abandoned) metrics.abandoned.Increment();
    metrics.faulty_meetings.Increment();
  }
  obs::EmitEvent("fault", [&](obs::JsonWriter& writer) {
    writer.Field("initiator", initiator)
        .Field("partner", partner)
        .Field("failed_attempts", decision.failed_attempts)
        .Field("abandoned", decision.abandoned)
        .Field("drops", drops)
        .Field("truncations", truncations)
        .Field("corruptions", corruptions)
        .Field("crashes", crashes)
        .Field("stale_resumes", resumes);
  });
  return decision;
}

void FaultInjector::RecordWasted(double bytes) {
  if (bytes <= 0) return;
  stats_.wasted_bytes += bytes;
  if (obs::Enabled()) GetFaultMetrics().wasted_bytes.Observe(bytes);
}

}  // namespace p2p
}  // namespace jxp
