#include "core/jxp_peer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/timer.h"
#include "core/extended_graph.h"
#include "core/meeting_wire.h"
#include "markov/power_iteration.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace core {

namespace {

/// Meeting-path observables (DESIGN.md §6d). Counters and the non-"_ms"
/// histograms are pure functions of the simulated meetings and therefore
/// bit-identical across runs and thread counts; the "_ms" histograms carry
/// wall-clock-dependent timings.
struct MeetingMetrics {
  obs::Counter meetings = obs::MetricsRegistry::Global().GetCounter("jxp.meetings");
  obs::Counter merges = obs::MetricsRegistry::Global().GetCounter("jxp.merges");
  obs::Counter merges_rejected =
      obs::MetricsRegistry::Global().GetCounter("jxp.merges_rejected");
  obs::Histogram wire_bytes =
      obs::MetricsRegistry::Global().GetHistogram("jxp.meeting.wire_bytes");
  obs::Histogram merge_cpu_ms =
      obs::MetricsRegistry::Global().GetHistogram("jxp.merge.cpu_ms");
  obs::Histogram pr_iterations =
      obs::MetricsRegistry::Global().GetHistogram("jxp.merge.pr_iterations");
  obs::Histogram world_update_ms =
      obs::MetricsRegistry::Global().GetHistogram("jxp.merge.world_update_ms");
  /// Measured-wire-mode observables: per-message encoded size, analytic /
  /// measured compression ratio (both deterministic), and codec CPU.
  obs::Histogram wire_message_bytes =
      obs::MetricsRegistry::Global().GetHistogram("jxp.wire.message_bytes");
  obs::Histogram wire_compression_ratio =
      obs::MetricsRegistry::Global().GetHistogram("jxp.wire.compression_ratio");
  obs::Histogram wire_encode_ms =
      obs::MetricsRegistry::Global().GetHistogram("jxp.wire.encode_ms");
  obs::Histogram wire_decode_ms =
      obs::MetricsRegistry::Global().GetHistogram("jxp.wire.decode_ms");
};

MeetingMetrics& GetMeetingMetrics() {
  static MeetingMetrics metrics;
  return metrics;
}

/// Numerical floor for the world score; Theorem 5.3 keeps the true value
/// well above this, so the floor only guards against pathological inputs.
constexpr double kWorldScoreFloor = 1e-12;

/// Network-wide constants of the distributed page-count sketch; all peers
/// must share them for sketch unions to be meaningful.
constexpr size_t kPageSketchBuckets = 256;
constexpr uint64_t kPageSketchSeed = 0x9a6e5c0117ULL;

}  // namespace

JxpPeer::JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
                 const JxpOptions& options)
    : id_(id),
      fragment_(std::move(fragment)),
      global_size_(global_size),
      options_(options),
      page_sketch_(kPageSketchBuckets, kPageSketchSeed) {
  JXP_CHECK_GT(fragment_.NumLocalPages(), 0u) << "peer with empty fragment";
  JXP_CHECK_GE(global_size_, fragment_.NumLocalPages());
  SeedPageSketch();
  RefreshGlobalSizeEstimate();
  // Algorithm 1: uniform initial scores, then one local PR run.
  scores_.assign(fragment_.NumLocalPages(), 1.0 / static_cast<double>(global_size_));
  RunLocalPageRank();
}

JxpPeer::JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
                 const JxpOptions& options, std::vector<double> scores, WorldNode world,
                 double world_score)
    : id_(id),
      fragment_(std::move(fragment)),
      global_size_(global_size),
      options_(options),
      scores_(std::move(scores)),
      world_score_(world_score),
      world_(std::move(world)),
      page_sketch_(kPageSketchBuckets, kPageSketchSeed) {
  JXP_CHECK_GT(fragment_.NumLocalPages(), 0u);
  JXP_CHECK_EQ(scores_.size(), fragment_.NumLocalPages());
  JXP_CHECK_GE(global_size_, fragment_.NumLocalPages());
  JXP_CHECK_GT(world_score_, 0.0);
  JXP_CHECK_LT(world_score_, 1.0);
  SeedPageSketch();
}

void JxpPeer::SeedPageSketch() {
  // A crawler knows its own pages plus every link target it saw; both count
  // as distinct pages of the global graph.
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    page_sketch_.Add(fragment_.GlobalId(i));
    for (graph::PageId successor : fragment_.Successors(i)) {
      page_sketch_.Add(successor);
    }
  }
}

void JxpPeer::RefreshGlobalSizeEstimate() {
  if (!options_.estimate_global_size) return;
  const double estimate = page_sketch_.EstimateCardinality();
  global_size_ = std::max<size_t>(fragment_.NumLocalPages() + 1,
                                  static_cast<size_t>(estimate + 0.5));
}

double JxpPeer::ScoreOfGlobal(graph::PageId page) const {
  const graph::Subgraph::LocalIndex i = fragment_.LocalIndexOf(page);
  return i == graph::Subgraph::kNotLocal ? 0.0 : scores_[i];
}

std::vector<uint8_t> JxpPeer::EncodeMeetingBytes() const {
  const synopses::HashSketch* sketch =
      options_.estimate_global_size ? &page_sketch_ : nullptr;
  if (options_.attack.type == AttackOptions::Type::kNone) {
    // An honest peer's message is its own state, encoded in place.
    return EncodeMeetingMessage(fragment_, scores_, world_, sketch);
  }
  const PeerView view = MakeView();
  return EncodeMeetingMessage(*view.fragment, view.scores, view.world, sketch);
}

RemoteMeetingApply JxpPeer::ApplyMeetingBytes(std::span<const uint8_t> bytes) {
  RemoteMeetingApply result;
  DecodedMeetingMessage decoded = DecodeMeetingMessage(bytes);
  result.bytes_consumed = decoded.bytes_consumed;
  result.salvaged = !decoded.error.ok();
  if (decoded.fragment == nullptr) return result;  // Degenerates to a drop.
  PeerView view;
  view.owned_fragment = decoded.fragment;
  view.fragment = view.owned_fragment.get();
  view.scores = std::move(decoded.scores);
  view.world = std::move(decoded.world);
  view.owned_sketch = decoded.sketch;
  view.page_sketch = view.owned_sketch.get();
  view.wire_bytes = static_cast<double>(decoded.bytes_consumed);
  result.cpu_millis = ProcessMeeting(view);
  result.pr_iterations = last_pr_iterations_;
  result.applied = true;
  return result;
}

MeetingOutcome JxpPeer::Meet(JxpPeer& initiator, JxpPeer& partner) {
  return Meet(initiator, partner, p2p::MeetingFaultDecision());
}

MeetingOutcome JxpPeer::Meet(JxpPeer& initiator, JxpPeer& partner,
                             const p2p::MeetingFaultDecision& faults) {
  JXP_CHECK_NE(initiator.id_, partner.id_) << "peer meeting itself";
  JXP_CHECK(!faults.abandoned) << "abandoned meeting must not run";
  JXP_CHECK(initiator.options_.merge_mode == partner.options_.merge_mode &&
            initiator.options_.combine_mode == partner.options_.combine_mode &&
            initiator.options_.wire_mode == partner.options_.wire_mode)
      << "meeting peers must share JXP options";
  if (initiator.options_.wire_mode == MeetingWireMode::kMeasured) {
    return MeetMeasured(initiator, partner, faults);
  }
  obs::TraceSpan span("jxp.meeting");
  span.AddAttr("initiator", initiator.id_);
  span.AddAttr("partner", partner.id_);

  // Snapshot both messages first: the exchange is simultaneous, so each side
  // must see the other's pre-meeting state.
  PeerView initiator_view = initiator.MakeView();
  PeerView partner_view = partner.MakeView();

  MeetingOutcome outcome;
  outcome.bytes_sent_initiator = initiator_view.wire_bytes;
  outcome.bytes_sent_partner = partner_view.wire_bytes;
  outcome.wire_bytes = initiator_view.wire_bytes + partner_view.wire_bytes;
  outcome.estimated_bytes_initiator = outcome.bytes_sent_initiator;
  outcome.estimated_bytes_partner = outcome.bytes_sent_partner;
  outcome.estimated_wire_bytes = outcome.wire_bytes;

  // Resolve the transport faults of each direction: what (if anything) of
  // the sender's message reaches the receiver. A truncation so severe that
  // not even one page arrives degenerates to a drop.
  PeerView truncated_to_initiator;
  PeerView truncated_to_partner;
  const PeerView* message_to_initiator = &partner_view;
  const PeerView* message_to_partner = &initiator_view;
  double delivered_to_initiator = faults.drop_to_initiator ? 0.0 : 1.0;
  double delivered_to_partner = faults.drop_to_partner ? 0.0 : 1.0;
  if (delivered_to_initiator > 0 && faults.keep_to_initiator < 1.0) {
    if (TruncateView(partner_view, faults.keep_to_initiator, truncated_to_initiator)) {
      message_to_initiator = &truncated_to_initiator;
      delivered_to_initiator = faults.keep_to_initiator;
    } else {
      delivered_to_initiator = 0.0;
    }
  }
  if (delivered_to_partner > 0 && faults.keep_to_partner < 1.0) {
    if (TruncateView(initiator_view, faults.keep_to_partner, truncated_to_partner)) {
      message_to_partner = &truncated_to_partner;
      delivered_to_partner = faults.keep_to_partner;
    } else {
      delivered_to_partner = 0.0;
    }
  }

  // A side applies its incoming message only when something was delivered
  // and the side did not crash mid-meeting; a suppressed side's state does
  // not advance at all (no meeting count, no history entry).
  outcome.applied_initiator = delivered_to_initiator > 0 && !faults.crash_initiator;
  outcome.applied_partner = delivered_to_partner > 0 && !faults.crash_partner;
  if (outcome.applied_initiator) {
    outcome.cpu_millis_initiator = initiator.ProcessMeeting(*message_to_initiator);
    outcome.pr_iterations_initiator = initiator.last_pr_iterations_;
  }
  if (outcome.applied_partner) {
    outcome.cpu_millis_partner = partner.ProcessMeeting(*message_to_partner);
    outcome.pr_iterations_partner = partner.last_pr_iterations_;
  }

  // Wasted-byte accounting, attributed to the sender: everything the sender
  // shipped beyond what the receiver actually applied.
  outcome.wasted_bytes_initiator =
      outcome.bytes_sent_initiator *
      (1.0 - (outcome.applied_partner ? delivered_to_partner : 0.0));
  outcome.wasted_bytes_partner =
      outcome.bytes_sent_partner *
      (1.0 - (outcome.applied_initiator ? delivered_to_initiator : 0.0));
  outcome.wasted_bytes = outcome.wasted_bytes_initiator + outcome.wasted_bytes_partner;

  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.meetings.Increment();
    metrics.wire_bytes.Observe(outcome.wire_bytes);
  }
  if (span.active()) {
    if (!faults.Clean()) {
      span.AddAttr("applied_initiator", outcome.applied_initiator);
      span.AddAttr("applied_partner", outcome.applied_partner);
      span.AddAttr("wasted_bytes", outcome.wasted_bytes);
    }
    span.AddAttr("wire_bytes", outcome.wire_bytes);
    span.AddAttr("cpu_ms_initiator", outcome.cpu_millis_initiator);
    span.AddAttr("cpu_ms_partner", outcome.cpu_millis_partner);
    span.AddAttr("pr_iterations",
                 outcome.pr_iterations_initiator + outcome.pr_iterations_partner);
  }
  return outcome;
}

MeetingOutcome JxpPeer::MeetMeasured(JxpPeer& initiator, JxpPeer& partner,
                                     const p2p::MeetingFaultDecision& faults) {
  obs::TraceSpan span("jxp.meeting");
  span.AddAttr("initiator", initiator.id_);
  span.AddAttr("partner", partner.id_);
  span.AddAttr("wire_mode", "measured");

  // Serialize both messages through the wire codec before either side
  // applies (the exchange is simultaneous); from here on the bytes *are* the
  // message, and faults act on them.
  std::optional<ThreadCpuTimer> encode_timer;
  if (obs::Enabled()) encode_timer.emplace();
  const std::vector<uint8_t> initiator_bytes = initiator.EncodeMeetingBytes();
  const std::vector<uint8_t> partner_bytes = partner.EncodeMeetingBytes();
  if (encode_timer.has_value()) {
    GetMeetingMetrics().wire_encode_ms.Observe(encode_timer->ElapsedMillis());
  }

  MeetingOutcome outcome;
  outcome.bytes_sent_initiator = static_cast<double>(initiator_bytes.size());
  outcome.bytes_sent_partner = static_cast<double>(partner_bytes.size());
  outcome.wire_bytes = outcome.bytes_sent_initiator + outcome.bytes_sent_partner;
  outcome.estimated_bytes_initiator = initiator.EstimatedMessageBytes();
  outcome.estimated_bytes_partner = partner.EstimatedMessageBytes();
  outcome.estimated_wire_bytes =
      outcome.estimated_bytes_initiator + outcome.estimated_bytes_partner;

  // Resolves one direction's transport: truncation keeps a byte prefix,
  // corruption flips one bit of what arrives, and the receiver's decoder
  // salvages the intact frame prefix. Returns false when nothing usable
  // arrived (drop, or damage so early that no page decoded); the delivered
  // fraction is measured in decoded bytes over sent bytes.
  const auto resolve = [](const std::vector<uint8_t>& sent, bool drop, double keep,
                          bool corrupt, double corrupt_offset, int corrupt_bit,
                          PeerView& received, double& fraction) -> bool {
    fraction = 0;
    if (drop || sent.empty()) return false;
    std::vector<uint8_t> delivered = sent;
    if (keep < 1.0) {
      delivered.resize(static_cast<size_t>(keep * static_cast<double>(delivered.size())));
      if (delivered.empty()) return false;
    }
    if (corrupt) {
      const size_t at = std::min(
          delivered.size() - 1,
          static_cast<size_t>(corrupt_offset * static_cast<double>(delivered.size())));
      delivered[at] ^= static_cast<uint8_t>(1u << (corrupt_bit & 7));
    }
    DecodedMeetingMessage decoded = DecodeMeetingMessage(delivered);
    if (decoded.fragment == nullptr) return false;
    received.owned_fragment = decoded.fragment;
    received.fragment = received.owned_fragment.get();
    received.scores = std::move(decoded.scores);
    received.world = std::move(decoded.world);
    received.owned_sketch = decoded.sketch;
    received.page_sketch = received.owned_sketch.get();
    received.wire_bytes = static_cast<double>(decoded.bytes_consumed);
    fraction = static_cast<double>(decoded.bytes_consumed) /
               static_cast<double>(sent.size());
    return true;
  };

  std::optional<ThreadCpuTimer> decode_timer;
  if (obs::Enabled()) decode_timer.emplace();
  PeerView to_initiator;
  PeerView to_partner;
  double delivered_to_initiator = 0;
  double delivered_to_partner = 0;
  const bool initiator_got_message = resolve(
      partner_bytes, faults.drop_to_initiator, faults.keep_to_initiator,
      faults.corrupt_to_initiator, faults.corrupt_offset_to_initiator,
      faults.corrupt_bit_to_initiator, to_initiator, delivered_to_initiator);
  const bool partner_got_message = resolve(
      initiator_bytes, faults.drop_to_partner, faults.keep_to_partner,
      faults.corrupt_to_partner, faults.corrupt_offset_to_partner,
      faults.corrupt_bit_to_partner, to_partner, delivered_to_partner);
  if (decode_timer.has_value()) {
    GetMeetingMetrics().wire_decode_ms.Observe(decode_timer->ElapsedMillis());
  }

  outcome.applied_initiator = initiator_got_message && !faults.crash_initiator;
  outcome.applied_partner = partner_got_message && !faults.crash_partner;
  if (outcome.applied_initiator) {
    outcome.cpu_millis_initiator = initiator.ProcessMeeting(to_initiator);
    outcome.pr_iterations_initiator = initiator.last_pr_iterations_;
  }
  if (outcome.applied_partner) {
    outcome.cpu_millis_partner = partner.ProcessMeeting(to_partner);
    outcome.pr_iterations_partner = partner.last_pr_iterations_;
  }

  // Same wasted-byte convention as the estimated path, but against measured
  // sizes: what a sender shipped minus what its receiver decoded and used.
  outcome.wasted_bytes_initiator =
      outcome.bytes_sent_initiator *
      (1.0 - (outcome.applied_partner ? delivered_to_partner : 0.0));
  outcome.wasted_bytes_partner =
      outcome.bytes_sent_partner *
      (1.0 - (outcome.applied_initiator ? delivered_to_initiator : 0.0));
  outcome.wasted_bytes = outcome.wasted_bytes_initiator + outcome.wasted_bytes_partner;

  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.meetings.Increment();
    metrics.wire_bytes.Observe(outcome.wire_bytes);
    metrics.wire_message_bytes.Observe(outcome.bytes_sent_initiator);
    metrics.wire_message_bytes.Observe(outcome.bytes_sent_partner);
    if (outcome.bytes_sent_initiator > 0) {
      metrics.wire_compression_ratio.Observe(outcome.estimated_bytes_initiator /
                                             outcome.bytes_sent_initiator);
    }
    if (outcome.bytes_sent_partner > 0) {
      metrics.wire_compression_ratio.Observe(outcome.estimated_bytes_partner /
                                             outcome.bytes_sent_partner);
    }
  }
  if (span.active()) {
    if (!faults.Clean()) {
      span.AddAttr("applied_initiator", outcome.applied_initiator);
      span.AddAttr("applied_partner", outcome.applied_partner);
      span.AddAttr("wasted_bytes", outcome.wasted_bytes);
    }
    span.AddAttr("wire_bytes", outcome.wire_bytes);
    span.AddAttr("estimated_wire_bytes", outcome.estimated_wire_bytes);
    span.AddAttr("cpu_ms_initiator", outcome.cpu_millis_initiator);
    span.AddAttr("cpu_ms_partner", outcome.cpu_millis_partner);
    span.AddAttr("pr_iterations",
                 outcome.pr_iterations_initiator + outcome.pr_iterations_partner);
  }
  return outcome;
}

bool JxpPeer::TruncateView(const PeerView& full, double keep_fraction, PeerView& out) {
  const graph::Subgraph& frag = *full.fragment;
  const size_t n = frag.NumLocalPages();
  const size_t k =
      static_cast<size_t>(keep_fraction * static_cast<double>(n));
  if (k == 0) return false;
  if (k >= n) {
    // Nothing was actually cut; the "truncated" message is the full one.
    out = full;
    return true;
  }
  // The page table is serialized in local-index order (ascending page id),
  // so the first k records arrive complete (each with its full successor
  // list) and keep their local indices.
  std::vector<graph::PageId> pages(frag.Pages().begin(), frag.Pages().begin() + k);
  std::vector<uint64_t> offsets = {0};
  std::vector<graph::PageId> successors;
  offsets.reserve(k + 1);
  for (graph::Subgraph::LocalIndex i = 0; i < k; ++i) {
    const auto succ = frag.Successors(i);
    successors.insert(successors.end(), succ.begin(), succ.end());
    offsets.push_back(successors.size());
  }
  auto owned = std::make_shared<graph::Subgraph>(graph::Subgraph::FromSortedCsr(
      std::move(pages), std::move(offsets), std::move(successors)));
  out.scores.assign(full.scores.begin(), full.scores.begin() + k);
  out.fragment = owned.get();
  out.owned_fragment = std::move(owned);
  // The world node and page sketch ride at the tail of the message: lost.
  out.world = WorldNode();
  out.page_sketch = nullptr;
  out.wire_bytes = full.wire_bytes * keep_fraction;
  return true;
}

JxpPeer::PeerView JxpPeer::MakeView() const {
  PeerView view;
  view.fragment = &fragment_;
  view.scores = scores_;
  view.world = world_;
  view.page_sketch = &page_sketch_;
  view.wire_bytes = EstimatedMessageBytes();
  // A cheating peer corrupts its outgoing message (Section 7's open
  // problem; see AttackOptions).
  switch (options_.attack.type) {
    case AttackOptions::Type::kNone:
      break;
    case AttackOptions::Type::kScoreInflation: {
      const double factor = options_.attack.inflation_factor;
      for (double& s : view.scores) s *= factor;
      view.world.ScaleScores(factor);
      break;
    }
    case AttackOptions::Type::kRandomScores: {
      Random noise(options_.attack.seed ^ (num_meetings_ * 0x9e3779b9ULL));
      for (double& s : view.scores) s = noise.NextDouble();
      break;
    }
  }
  return view;
}

bool JxpPeer::ShouldRejectMessage(const PeerView& partner) const {
  if (!options_.defense.enabled) return false;
  // Mass test: an honest score list is part of a distribution.
  double mass = 0;
  for (double s : partner.scores) mass += s;
  if (mass > options_.defense.max_reported_mass) return true;
  // Overlap-divergence test: two honest peers' scores for a shared page are
  // underestimates of the same PageRank and typically close, so the median
  // |log(reported/own)| over the overlap is small; broad inflation and
  // random noise both push it up. (Two-sided so that undervaluing garbage
  // is caught as well.)
  std::vector<double> divergences;
  const graph::Subgraph& other = *partner.fragment;
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(other.GlobalId(k));
    if (mine == graph::Subgraph::kNotLocal) continue;
    if (scores_[mine] <= 0 || partner.scores[k] <= 0) {
      divergences.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    divergences.push_back(std::abs(std::log(partner.scores[k] / scores_[mine])));
  }
  if (divergences.size() < options_.defense.min_overlap_to_judge) return false;
  std::nth_element(divergences.begin(), divergences.begin() + divergences.size() / 2,
                   divergences.end());
  const double median = divergences[divergences.size() / 2];
  return median > std::log(options_.defense.max_overlap_divergence);
}

double JxpPeer::ProcessMeeting(const PeerView& partner) {
  obs::TraceSpan span("jxp.process_meeting");
  span.AddAttr("peer", id_);
  span.AddAttr("merge_mode",
               options_.merge_mode == MergeMode::kLightWeight ? "light_weight"
                                                              : "full_merge");
  CpuTimer timer;
  if (ShouldRejectMessage(partner)) {
    ++num_meetings_;
    ++rejected_meetings_;
    meeting_cpu_millis_.push_back(timer.ElapsedMillis());
    world_score_history_.push_back(world_score_);
    if (obs::Enabled()) GetMeetingMetrics().merges_rejected.Increment();
    span.AddAttr("rejected", true);
    return meeting_cpu_millis_.back();
  }
  if (options_.estimate_global_size && partner.page_sketch != nullptr) {
    page_sketch_.UnionWith(*partner.page_sketch);
    RefreshGlobalSizeEstimate();
  }
  if (options_.merge_mode == MergeMode::kLightWeight) {
    ProcessLightWeight(partner);
  } else {
    ProcessFullMerge(partner);
  }
  const double millis = timer.ElapsedMillis();
  ++num_meetings_;
  meeting_cpu_millis_.push_back(millis);
  world_score_history_.push_back(world_score_);
  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.merges.Increment();
    metrics.merge_cpu_ms.Observe(millis);
    metrics.pr_iterations.Observe(last_pr_iterations_);
  }
  if (span.active()) {
    span.AddAttr("rejected", false);
    span.AddAttr("pr_iterations", last_pr_iterations_);
    span.AddAttr("cpu_ms", millis);
  }
  return millis;
}

bool JxpPeer::HasLocallyConverged(size_t window, double tolerance) const {
  JXP_CHECK_GT(window, 0u);
  JXP_CHECK_GE(tolerance, 0.0);
  if (world_score_history_.size() < window) return false;
  const double oldest = world_score_history_[world_score_history_.size() - window];
  return std::abs(oldest - world_score_) <= tolerance;
}

void JxpPeer::CombineLocalScore(graph::Subgraph::LocalIndex i, double reported) {
  scores_[i] = CombineScores(options_.combine_mode, scores_[i], reported);
}

void JxpPeer::ProcessLightWeight(const PeerView& partner) {
  std::optional<ThreadCpuTimer> world_timer;
  if (obs::Enabled()) world_timer.emplace();
  const graph::Subgraph& other = *partner.fragment;
  // Fold the partner's local pages into our view: overlapping pages combine
  // score lists; external pages that link into our fragment enter the world
  // node with their out-degree, score, and the in-links they contribute.
  // The partner's pages arrive in ascending order, so they form a sorted
  // batch for one merge.
  WorldNode hosted;
  std::vector<graph::PageId> targets;
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::PageId page = other.GlobalId(k);
    const double reported = partner.scores[k];
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(page);
    if (mine != graph::Subgraph::kNotLocal) {
      CombineLocalScore(mine, reported);
      continue;
    }
    if (other.GlobalOutDegree(k) == 0) {
      // External dangling page: its mass reaches us via the uniform
      // redistribution, which the world row models in aggregate.
      hosted.AppendDangling(page, reported);
      continue;
    }
    targets.clear();
    for (graph::PageId successor : other.Successors(k)) {
      if (fragment_.Contains(successor)) targets.push_back(successor);
    }
    if (!targets.empty()) {
      hosted.Append(page, static_cast<uint32_t>(other.GlobalOutDegree(k)), reported,
                    targets);
    }
  }
  // Fold the partner's world node: entries about our own pages refresh our
  // score list; entries about external pages that link into our fragment
  // extend our world node (the "union of the links represented in them").
  const wire::WorldColumns& heard_of = partner.world.columns();
  WorldNode relayed;
  for (size_t e = 0; e < heard_of.NumEntries(); ++e) {
    const graph::PageId page = heard_of.pages[e];
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(page);
    if (mine != graph::Subgraph::kNotLocal) {
      CombineLocalScore(mine, heard_of.scores[e]);
      continue;
    }
    targets.clear();
    for (graph::PageId target : heard_of.Targets(e)) {
      if (fragment_.Contains(target)) targets.push_back(target);
    }
    if (!targets.empty()) {
      relayed.Append(page, heard_of.out_degrees[e], heard_of.scores[e], targets);
    }
  }
  for (size_t d = 0; d < heard_of.dangling_pages.size(); ++d) {
    const graph::PageId page = heard_of.dangling_pages[d];
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(page);
    if (mine != graph::Subgraph::kNotLocal) {
      CombineLocalScore(mine, heard_of.dangling_scores[d]);
    } else {
      relayed.AppendDangling(page, heard_of.dangling_scores[d]);
    }
  }
  world_.Merge(std::move(hosted), options_.combine_mode, options_.authoritative_refresh);
  world_.Merge(std::move(relayed), options_.combine_mode);
  if (world_timer.has_value()) {
    GetMeetingMetrics().world_update_ms.Observe(world_timer->ElapsedMillis());
  }
  RunLocalPageRank();
}

void JxpPeer::ProcessFullMerge(const PeerView& partner) {
  std::optional<ThreadCpuTimer> world_timer;
  if (obs::Enabled()) world_timer.emplace();
  const graph::Subgraph& other = *partner.fragment;
  // Merged graph G_M = union of the two fragments with full out-link
  // knowledge; merged score list L_M combines overlapping pages.
  graph::Subgraph merged = graph::Subgraph::Merge(fragment_, other);
  const size_t m = merged.NumLocalPages();
  std::vector<double> merged_scores(m, 0.0);
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    merged_scores[merged.LocalIndexOf(fragment_.GlobalId(i))] = scores_[i];
  }
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::Subgraph::LocalIndex mi = merged.LocalIndexOf(other.GlobalId(k));
    if (fragment_.Contains(other.GlobalId(k))) {
      merged_scores[mi] =
          CombineScores(options_.combine_mode, merged_scores[mi], partner.scores[k]);
    } else {
      merged_scores[mi] = partner.scores[k];
    }
  }

  // Merged world node W_M: union of both world nodes minus links that became
  // explicit in G_M (paper: T_M = (T_A ∪ T_B) − E_M; entries whose source
  // page is itself in V_M are dropped because those links are now edges).
  const auto in_merged = [&merged](graph::PageId page) { return merged.Contains(page); };
  WorldNode merged_world = world_;
  merged_world.EraseIf(in_merged);
  WorldNode partner_world = partner.world;
  partner_world.EraseIf(in_merged);
  merged_world.Merge(std::move(partner_world), options_.combine_mode);
  if (world_timer.has_value()) {
    GetMeetingMetrics().world_update_ms.Observe(world_timer->ElapsedMillis());
  }

  // World-node score per Eq. 1, then PageRank on G_M + W_M, with the same
  // self-consistent-denominator guard as RunLocalPageRank.
  double local_mass = 0;
  for (double s : merged_scores) local_mass += s;
  double denominator = std::max(1.0 - local_mass, kWorldScoreFloor);
  std::vector<double> init = merged_scores;
  init.push_back(denominator);
  markov::PowerIterationOptions pi_options;
  pi_options.damping = options_.damping;
  pi_options.tolerance = options_.pr_tolerance;
  pi_options.max_iterations = options_.pr_max_iterations;
  markov::PowerIterationResult result;
  int total_iterations = 0;
  // The merged graph lives only for this meeting, but the guard loop below
  // still reuses its local rows: only the world row is regenerated per
  // denominator.
  ExtendedSystemCache merged_cache;
  const ExtendedGraphSystem* system =
      &merged_cache.Prepare(merged, merged_world, denominator, global_size_,
                            options_.uniform_world_links
                                ? WorldLinkWeighting::kUniform
                                : WorldLinkWeighting::kScoreProportional);
  for (int guard = 0; guard < 64; ++guard) {
    ever_clamped_world_row_ |= system->world_row_clamped;
    result = StationaryDistribution(system->matrix, system->teleport, system->dangling,
                                    init, pi_options);
    total_iterations += result.iterations;
    if (result.distribution[m] <= denominator + 1e-13) break;
    denominator = result.distribution[m];
    init = result.distribution;
    system = &merged_cache.Rescale(denominator);
  }
  last_pr_iterations_ = total_iterations;
  const double pr_world = result.distribution[m];
  // Score update: Eq. 2 re-weights external (world-node) scores in the
  // baseline mode; Eq. 3 leaves them unchanged in take-max mode.
  if (options_.combine_mode == CombineMode::kAverage) {
    merged_world.ScaleScores(pr_world / denominator);
  }

  // Project back onto our fragment (the disconnect step of Figure 1):
  // local scores from the merged result ...
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    scores_[i] = result.distribution[merged.LocalIndexOf(fragment_.GlobalId(i))];
  }
  // ... and a new world node: W_M's links into V_A, plus the partner's pages
  // (E_B links) that point into V_A, now valued at their merged PR scores.
  // The two sets are disjoint (W_M excludes every page of G_M).
  const auto in_fragment = [this](graph::PageId page) {
    return fragment_.Contains(page);
  };
  WorldNode new_world = std::move(merged_world);
  new_world.FilterTargets(in_fragment);
  WorldNode partner_pages;
  std::vector<graph::PageId> targets;
  for (graph::Subgraph::LocalIndex k = 0; k < other.NumLocalPages(); ++k) {
    const graph::PageId page = other.GlobalId(k);
    if (fragment_.Contains(page)) continue;
    const double score = result.distribution[merged.LocalIndexOf(page)];
    if (other.GlobalOutDegree(k) == 0) {
      partner_pages.AppendDangling(page, score);
      continue;
    }
    targets.clear();
    for (graph::PageId successor : other.Successors(k)) {
      if (fragment_.Contains(successor)) targets.push_back(successor);
    }
    if (!targets.empty()) {
      partner_pages.Append(page, static_cast<uint32_t>(other.GlobalOutDegree(k)), score,
                           targets);
    }
  }
  new_world.Merge(std::move(partner_pages), options_.combine_mode,
                  options_.authoritative_refresh);
  world_ = std::move(new_world);
  // The world node again represents *everything* outside V_A (including the
  // partner's pages), so its score is the complement of the local mass.
  double my_mass = 0;
  for (double s : scores_) my_mass += s;
  world_score_ = std::max(1.0 - my_mass, kWorldScoreFloor);
}

void JxpPeer::RunLocalPageRank() {
  const size_t n = fragment_.NumLocalPages();
  // The world row's weights are alpha(r)/alpha_w^{t-1} (Eq. 8). Using the
  // *previous run's* world score as the denominator — not the post-combine
  // complement 1 - sum(scores), which the take-max combination can push
  // below it — keeps the row's flow per entry at most alpha(r)/out(r).
  //
  // One subtlety the paper's proof glosses over: safety (Theorem 5.3) needs
  // the run's *resulting* world score to stay <= the denominator, otherwise
  // the realized flow alpha_w^t * p_wi exceeds alpha(r)/out(r) and scores
  // can transiently overestimate the true PageRank. We therefore iterate to
  // a self-consistent denominator: if the result exceeds it, re-run with
  // the larger value (the map D -> alpha_w(D) is increasing and bounded by
  // 1, so this converges; in the normal monotone regime the first run
  // already satisfies the condition and the loop body executes once).
  double denominator = std::max(world_score_, kWorldScoreFloor);
  double local_mass = 0;
  for (double s : scores_) local_mass += s;
  std::vector<double> init = scores_;
  init.push_back(std::max(1.0 - local_mass, kWorldScoreFloor));

  markov::PowerIterationOptions pi_options;
  pi_options.damping = options_.damping;
  pi_options.tolerance = options_.pr_tolerance;
  pi_options.max_iterations = options_.pr_max_iterations;

  markov::PowerIterationResult result;
  int total_iterations = 0;
  // The cache keeps the local rows across meetings (the world row is
  // regenerated per pass, its scores change at every meeting) and the guard
  // loop below only rescales the world row per denominator.
  const ExtendedGraphSystem* system =
      &extended_cache_.Prepare(fragment_, world_, denominator, global_size_,
                               options_.uniform_world_links
                                   ? WorldLinkWeighting::kUniform
                                   : WorldLinkWeighting::kScoreProportional);
  for (int guard = 0; guard < 64; ++guard) {
    ever_clamped_world_row_ |= system->world_row_clamped;
    result = StationaryDistribution(system->matrix, system->teleport, system->dangling,
                                    init, pi_options);
    total_iterations += result.iterations;
    const double pr_world = result.distribution[n];
    if (pr_world <= denominator + 1e-13) break;
    denominator = pr_world;
    init = result.distribution;  // Warm start for the re-run.
    system = &extended_cache_.Rescale(denominator);
  }
  last_pr_iterations_ = total_iterations;

  const double pr_world = result.distribution[n];
  if (options_.combine_mode == CombineMode::kAverage) {
    // Eq. 2: external scores are re-weighted by PR(W)/L(W).
    world_.ScaleScores(pr_world / denominator);
  }
  scores_.assign(result.distribution.begin(), result.distribution.begin() + n);
  world_score_ = pr_world;
}

double JxpPeer::EstimatedMessageBytes() const {
  return MessageWireBytes() + (options_.estimate_global_size
                                   ? static_cast<double>(page_sketch_.SizeBytes())
                                   : 0.0);
}

double JxpPeer::MessageWireBytes() const {
  // Page table: id (8) + out-degree (4) + score (8) per local page;
  // successor lists: 8 per link; world node entries as WorldNode::WireBytes.
  const double page_bytes = static_cast<double>(fragment_.NumLocalPages()) * (8 + 4 + 8);
  const double link_bytes = static_cast<double>(fragment_.NumLocalEdges() +
                                                fragment_.NumExternalOutEdges()) * 8;
  return page_bytes + link_bytes + world_.WireBytes();
}

void JxpPeer::ReplaceFragment(graph::Subgraph fragment) {
  JXP_CHECK_GT(fragment.NumLocalPages(), 0u);
  std::vector<double> new_scores(fragment.NumLocalPages(), 0.0);
  for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
    const graph::PageId page = fragment.GlobalId(i);
    const graph::Subgraph::LocalIndex old = fragment_.LocalIndexOf(page);
    if (old != graph::Subgraph::kNotLocal) {
      new_scores[i] = scores_[old];
    } else if (const auto info = world_.Find(page)) {
      // The page was known through the world node: keep that estimate.
      new_scores[i] = std::max(info->score, 1.0 / static_cast<double>(global_size_));
    } else if (const auto dangling = world_.FindDangling(page)) {
      new_scores[i] = std::max(*dangling, 1.0 / static_cast<double>(global_size_));
    } else {
      new_scores[i] = 1.0 / static_cast<double>(global_size_);
    }
  }
  const graph::Subgraph old_fragment = std::move(fragment_);
  const std::vector<double> old_scores = std::move(scores_);
  fragment_ = std::move(fragment);
  scores_ = std::move(new_scores);
  // The cached extended-system local rows describe the old fragment and
  // must be rebuilt; the next local PageRank run warm-starts from the
  // carried-over scores.
  extended_cache_.InvalidateFragment();
  // Drop world knowledge about pages that became local, and in-links aimed
  // at pages we no longer hold.
  const auto in_fragment = [this](graph::PageId page) {
    return fragment_.Contains(page);
  };
  world_.EraseIf(in_fragment);
  world_.FilterTargets(in_fragment);
  // Retain what the peer learned from crawling the dropped pages: a dropped
  // page that links into the retained set becomes a world-node entry with
  // its last known score.
  WorldNode dropped;
  std::vector<graph::PageId> targets;
  for (graph::Subgraph::LocalIndex i = 0; i < old_fragment.NumLocalPages(); ++i) {
    const graph::PageId page = old_fragment.GlobalId(i);
    if (fragment_.Contains(page)) continue;
    if (old_fragment.GlobalOutDegree(i) == 0) {
      dropped.AppendDangling(page, old_scores[i]);
      continue;
    }
    targets.clear();
    for (graph::PageId successor : old_fragment.Successors(i)) {
      if (fragment_.Contains(successor)) targets.push_back(successor);
    }
    if (!targets.empty()) {
      dropped.Append(page, static_cast<uint32_t>(old_fragment.GlobalOutDegree(i)),
                     old_scores[i], targets);
    }
  }
  world_.Merge(std::move(dropped), options_.combine_mode, options_.authoritative_refresh);
  // The re-crawl may have discovered new pages; the sketch only ever grows
  // (departed pages still exist in the global graph).
  SeedPageSketch();
  RefreshGlobalSizeEstimate();
  RunLocalPageRank();
}

}  // namespace core
}  // namespace jxp
