#include "core/jxp_peer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

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
  /// How the light-weight merge folded the partner's reports (FoldTally).
  obs::Counter reports_unchanged =
      obs::MetricsRegistry::Global().GetCounter("jxp.world.reports_unchanged");
  obs::Counter reports_in_place =
      obs::MetricsRegistry::Global().GetCounter("jxp.world.reports_in_place");
  obs::Counter reports_structural =
      obs::MetricsRegistry::Global().GetCounter("jxp.world.reports_structural");
  /// Codec observables, one sample per message wherever the codec runs:
  /// encoded size, analytic / measured compression ratio (both
  /// deterministic), and codec CPU.
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

/// Reports external pages to `fold` as `fragment` sees them: a page without
/// out-links becomes a dangling report, any other page a report carrying
/// only its successors inside the fragment (a page with none is skipped).
/// Pages must arrive in ascending order within each of the fold's streams.
struct ExternalFold {
  ExternalFold(const graph::Subgraph& fragment, WorldFold& fold)
      : fragment(fragment), fold(fold) {}

  const graph::Subgraph& fragment;
  WorldFold& fold;
  std::vector<graph::PageId> targets;

  void Add(graph::PageId page, size_t out_degree, double score,
           std::span<const graph::PageId> successors) {
    if (out_degree == 0) {
      fold.AddDangling(page, score);
      return;
    }
    targets.clear();
    for (graph::PageId successor : successors) {
      if (fragment.Contains(successor)) targets.push_back(successor);
    }
    if (!targets.empty()) {
      fold.Add(page, static_cast<uint32_t>(out_degree), score, targets);
    }
  }
};

/// True when the ascending lists `a` and `b` share an element.
bool ShareAPage(std::span<const graph::PageId> a, std::span<const graph::PageId> b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// Numerical floor for the world score; Theorem 5.3 keeps the true value
/// well above this, so the floor only guards against pathological inputs.
constexpr double kWorldScoreFloor = 1e-12;

}  // namespace

JxpPeer::JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
                 const JxpOptions& options)
    : id_(id),
      fragment_(std::move(fragment)),
      global_size_(global_size),
      options_(options) {
  JXP_CHECK_GT(fragment_.NumLocalPages(), 0u) << "peer with empty fragment";
  JXP_CHECK_GE(global_size_, fragment_.NumLocalPages());
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
      world_(std::move(world)) {
  JXP_CHECK_GT(fragment_.NumLocalPages(), 0u);
  JXP_CHECK_EQ(scores_.size(), fragment_.NumLocalPages());
  JXP_CHECK_GE(global_size_, fragment_.NumLocalPages());
  JXP_CHECK_GT(world_score_, 0.0);
  JXP_CHECK_LT(world_score_, 1.0);
}

double JxpPeer::ScoreOfGlobal(graph::PageId page) const {
  const graph::Subgraph::LocalIndex i = fragment_.LocalIndexOf(page);
  return i == graph::Subgraph::kNotLocal ? 0.0 : scores_[i];
}

std::vector<uint8_t> JxpPeer::EncodeMeetingBytes() const {
  std::optional<ThreadCpuTimer> timer;
  if (obs::Enabled()) timer.emplace();
  std::vector<uint8_t> bytes;
  if (options_.attack.type == AttackOptions::Type::kNone) {
    // An honest peer's message is its own state, encoded in place.
    bytes = EncodeMeetingMessage(fragment_.Table(), scores_, world_);
  } else {
    const PeerView view = MakeView();
    bytes = EncodeMeetingMessage(view.pages, view.scores, view.world);
  }
  if (timer.has_value()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.wire_encode_ms.Observe(timer->ElapsedMillis());
    const double size = static_cast<double>(bytes.size());
    metrics.wire_message_bytes.Observe(size);
    metrics.wire_compression_ratio.Observe(MessageWireBytes() / size);
  }
  return bytes;
}

RemoteMeetingApply JxpPeer::ApplyMeetingBytes(std::span<const uint8_t> bytes) {
  RemoteMeetingApply result;
  std::optional<ThreadCpuTimer> timer;
  if (obs::Enabled()) timer.emplace();
  DecodedMeetingMessage decoded = DecodeMeetingMessage(bytes);
  if (timer.has_value()) {
    GetMeetingMetrics().wire_decode_ms.Observe(timer->ElapsedMillis());
  }
  result.bytes_consumed = decoded.bytes_consumed;
  result.salvaged = !decoded.error.ok();
  if (decoded.page_table.pages.empty()) return result;  // Degenerates to a drop.
  PeerView view;
  view.pages = decoded.page_table.View();
  view.scores = std::move(decoded.page_table.scores);
  view.world = std::move(decoded.world);
  ProcessMeeting(view);
  result.pr_iterations = last_pr_iterations_;
  result.applied = true;
  return result;
}

MeetingOutcome JxpPeer::Meet(JxpPeer& initiator, JxpPeer& partner) {
  JXP_CHECK_NE(initiator.id_, partner.id_) << "peer meeting itself";
  JXP_CHECK(initiator.options_.merge_mode == partner.options_.merge_mode &&
            initiator.options_.combine_mode == partner.options_.combine_mode &&
            initiator.options_.wire_mode == partner.options_.wire_mode)
      << "meeting peers must share JXP options";
  const bool measured = initiator.options_.wire_mode == MeetingWireMode::kMeasured;
  obs::TraceSpan span("jxp.meeting");
  span.AddAttr("initiator", initiator.id_);
  span.AddAttr("partner", partner.id_);
  if (measured) span.AddAttr("wire_mode", "measured");

  // Snapshot both messages before either side applies: the exchange is
  // simultaneous, so each side must see the other's pre-meeting state.
  MeetingOutcome outcome;
  outcome.estimated_bytes_initiator = initiator.MessageWireBytes();
  outcome.estimated_bytes_partner = partner.MessageWireBytes();
  if (measured) {
    // The daemons' exchange: from here on the bytes *are* the message.
    const std::vector<uint8_t> initiator_bytes = initiator.EncodeMeetingBytes();
    const std::vector<uint8_t> partner_bytes = partner.EncodeMeetingBytes();
    outcome.bytes_sent_initiator = static_cast<double>(initiator_bytes.size());
    outcome.bytes_sent_partner = static_cast<double>(partner_bytes.size());
    const RemoteMeetingApply initiator_side =
        initiator.ApplyMeetingBytes(partner_bytes);
    const RemoteMeetingApply partner_side = partner.ApplyMeetingBytes(initiator_bytes);
    JXP_CHECK(initiator_side.applied && !initiator_side.salvaged &&
              partner_side.applied && !partner_side.salvaged)
        << "a freshly encoded meeting message must apply whole";
  } else {
    outcome.bytes_sent_initiator = outcome.estimated_bytes_initiator;
    outcome.bytes_sent_partner = outcome.estimated_bytes_partner;
    const PeerView to_initiator = partner.MakeView();
    const PeerView to_partner = initiator.MakeView();
    initiator.ProcessMeeting(to_initiator);
    partner.ProcessMeeting(to_partner);
  }
  outcome.wire_bytes = outcome.bytes_sent_initiator + outcome.bytes_sent_partner;
  outcome.estimated_wire_bytes =
      outcome.estimated_bytes_initiator + outcome.estimated_bytes_partner;

  if (obs::Enabled()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.meetings.Increment();
    metrics.wire_bytes.Observe(outcome.wire_bytes);
  }
  if (span.active()) {
    span.AddAttr("wire_bytes", outcome.wire_bytes);
    if (measured) span.AddAttr("estimated_wire_bytes", outcome.estimated_wire_bytes);
  }
  return outcome;
}

JxpPeer::PeerView JxpPeer::MakeView() const {
  PeerView view;
  view.pages = fragment_.Table();
  view.scores = scores_;
  view.world = world_;
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

namespace {

/// Overlap size required before the divergence test is trusted.
constexpr size_t kMinOverlapToJudge = 3;

}  // namespace

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
  const std::span<const graph::PageId> pages = partner.pages.pages;
  for (size_t k = 0; k < pages.size(); ++k) {
    const graph::Subgraph::LocalIndex mine = fragment_.LocalIndexOf(pages[k]);
    if (mine == graph::Subgraph::kNotLocal) continue;
    if (scores_[mine] <= 0 || partner.scores[k] <= 0) {
      divergences.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    divergences.push_back(std::abs(std::log(partner.scores[k] / scores_[mine])));
  }
  if (divergences.size() < kMinOverlapToJudge) return false;
  std::nth_element(divergences.begin(), divergences.begin() + divergences.size() / 2,
                   divergences.end());
  const double median = divergences[divergences.size() / 2];
  return median > std::log(options_.defense.max_overlap_divergence);
}

void JxpPeer::ProcessMeeting(const PeerView& partner) {
  obs::TraceSpan span("jxp.process_meeting");
  span.AddAttr("peer", id_);
  span.AddAttr("merge_mode",
               options_.merge_mode == MergeMode::kLightWeight ? "light_weight"
                                                              : "full_merge");
  ThreadCpuTimer timer;
  if (ShouldRejectMessage(partner)) {
    ++num_meetings_;
    ++rejected_meetings_;
    meeting_cpu_millis_.push_back(timer.ElapsedMillis());
    world_score_history_.push_back(world_score_);
    if (obs::Enabled()) GetMeetingMetrics().merges_rejected.Increment();
    span.AddAttr("rejected", true);
    return;
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
}

void JxpPeer::CombineLocalScore(graph::Subgraph::LocalIndex i, double reported) {
  scores_[i] = CombineScores(options_.combine_mode, scores_[i], reported);
}

void JxpPeer::ProcessLightWeight(const PeerView& partner) {
  std::optional<ThreadCpuTimer> world_timer;
  if (obs::Enabled()) world_timer.emplace();
  const graph::PageTableView other = partner.pages;
  const wire::WorldColumns& heard_of = partner.world.columns();
  // The partner's pages and its world node are two page-sorted report
  // streams, folded against our world node in one join. Under take-max a
  // report about a page we know, whose targets we hold, raises that entry in
  // place; new pages and new links go through one Merge. An honest partner's
  // two streams share no page. A forged message that repeats one sends every
  // report through Merge, which combines the repeated reports first.
  const bool in_place = options_.combine_mode == CombineMode::kTakeMax &&
                        !ShareAPage(other.pages, heard_of.pages);
  WorldFold fold(world_, options_.combine_mode, in_place);
  ExternalFold external(fragment_, fold);
  // Overlapping pages combine score lists; external pages that link into
  // our fragment enter the world node with their out-degree, score, and the
  // in-links they contribute (external dangling pages reach us via the
  // uniform redistribution, which the world row models in aggregate).
  for (size_t k = 0; k < other.NumPages(); ++k) {
    const graph::PageId page = other.pages[k];
    if (fragment_.Contains(page)) {
      CombineLocalScore(fragment_.LocalIndexOf(page), partner.scores[k]);
    } else {
      const std::span<const graph::PageId> successors = other.Successors(k);
      external.Add(page, successors.size(), partner.scores[k], successors);
    }
  }
  // The partner's world node: entries about our own pages refresh our score
  // list; entries about external pages that link into our fragment extend
  // our world node (the "union of the links represented in them").
  fold.NextStream();
  for (size_t e = 0; e < heard_of.NumEntries(); ++e) {
    const graph::PageId page = heard_of.pages[e];
    if (fragment_.Contains(page)) {
      CombineLocalScore(fragment_.LocalIndexOf(page), heard_of.scores[e]);
    } else {
      external.Add(page, heard_of.out_degrees[e], heard_of.scores[e], heard_of.Targets(e));
    }
  }
  for (size_t d = 0; d < heard_of.dangling_pages.size(); ++d) {
    const graph::PageId page = heard_of.dangling_pages[d];
    if (fragment_.Contains(page)) {
      CombineLocalScore(fragment_.LocalIndexOf(page), heard_of.dangling_scores[d]);
    } else {
      fold.AddDangling(page, heard_of.dangling_scores[d]);
    }
  }
  fold.Finish();
  if (world_timer.has_value()) {
    MeetingMetrics& metrics = GetMeetingMetrics();
    metrics.world_update_ms.Observe(world_timer->ElapsedMillis());
    metrics.reports_unchanged.Increment(fold.tally().unchanged);
    metrics.reports_in_place.Increment(fold.tally().in_place);
    metrics.reports_structural.Increment(fold.tally().structural);
  }
  RunLocalPageRank();
}

void JxpPeer::ProcessFullMerge(const PeerView& partner) {
  std::optional<ThreadCpuTimer> world_timer;
  if (obs::Enabled()) world_timer.emplace();
  const graph::PageTableView other = partner.pages;
  // Merged graph G_M = union of the two fragments with full out-link
  // knowledge; merged score list L_M combines overlapping pages.
  graph::Subgraph merged = graph::Subgraph::Merge(fragment_, other);
  std::vector<double> merged_scores(merged.NumLocalPages(), 0.0);
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    merged_scores[merged.LocalIndexOf(fragment_.GlobalId(i))] = scores_[i];
  }
  for (size_t k = 0; k < other.NumPages(); ++k) {
    const graph::Subgraph::LocalIndex mi = merged.LocalIndexOf(other.pages[k]);
    if (fragment_.Contains(other.pages[k])) {
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

  // World-node score per Eq. 1, then PageRank on G_M + W_M. The merged graph
  // lives only for this meeting, but the guard loop still reuses its local
  // rows: only the world row is regenerated per denominator.
  double local_mass = 0;
  for (double s : merged_scores) local_mass += s;
  const double denominator = std::max(1.0 - local_mass, kWorldScoreFloor);
  merged_scores.push_back(denominator);
  ExtendedSystemCache merged_cache;
  const std::vector<double> distribution = SolveExtended(
      merged_cache, merged, merged_world, std::move(merged_scores), denominator);

  // Project back onto our fragment (the disconnect step of Figure 1):
  // local scores from the merged result ...
  for (graph::Subgraph::LocalIndex i = 0; i < fragment_.NumLocalPages(); ++i) {
    scores_[i] = distribution[merged.LocalIndexOf(fragment_.GlobalId(i))];
  }
  // ... and a new world node: W_M's links into V_A, plus the partner's pages
  // (E_B links) that point into V_A, now valued at their merged PR scores.
  // The two sets are disjoint (W_M excludes every page of G_M).
  world_ = std::move(merged_world);
  world_.FilterTargets([this](graph::PageId page) { return fragment_.Contains(page); });
  WorldFold fold(world_, options_.combine_mode, /*in_place=*/false);
  ExternalFold partner_pages(fragment_, fold);
  for (size_t k = 0; k < other.NumPages(); ++k) {
    const graph::PageId page = other.pages[k];
    if (fragment_.Contains(page)) continue;
    const std::span<const graph::PageId> successors = other.Successors(k);
    partner_pages.Add(page, successors.size(), distribution[merged.LocalIndexOf(page)],
                      successors);
  }
  fold.Finish();
  // The world node again represents *everything* outside V_A (including the
  // partner's pages), so its score is the complement of the local mass.
  double my_mass = 0;
  for (double s : scores_) my_mass += s;
  world_score_ = std::max(1.0 - my_mass, kWorldScoreFloor);
}

void JxpPeer::RunLocalPageRank() {
  // The world row's weights are alpha(r)/alpha_w^{t-1} (Eq. 8). Using the
  // *previous run's* world score as the denominator — not the post-combine
  // complement 1 - sum(scores), which the take-max combination can push
  // below it — keeps the row's flow per entry at most alpha(r)/out(r).
  double local_mass = 0;
  for (double s : scores_) local_mass += s;
  std::vector<double> init = scores_;
  init.push_back(std::max(1.0 - local_mass, kWorldScoreFloor));
  std::vector<double> distribution =
      SolveExtended(extended_cache_, fragment_, world_, std::move(init),
                    std::max(world_score_, kWorldScoreFloor));
  world_score_ = distribution.back();
  distribution.pop_back();
  scores_ = std::move(distribution);
}

std::vector<double> JxpPeer::SolveExtended(ExtendedSystemCache& cache,
                                           const graph::Subgraph& fragment,
                                           WorldNode& world, std::vector<double> init,
                                           double denominator) {
  // One subtlety the paper's proof glosses over: safety (Theorem 5.3) needs
  // the run's *resulting* world score to stay <= the denominator, otherwise
  // the realized flow alpha_w^t * p_wi exceeds alpha(r)/out(r) and scores
  // can transiently overestimate the true PageRank. We therefore iterate to
  // a self-consistent denominator: if the result exceeds it, re-run with
  // the larger value (the map D -> alpha_w(D) is increasing and bounded by
  // 1, so this converges; in the normal monotone regime the first run
  // already satisfies the condition and the loop body executes once).
  const size_t n = fragment.NumLocalPages();
  markov::PowerIterationOptions pi_options;
  pi_options.damping = options_.damping;
  pi_options.tolerance = options_.pr_tolerance;
  pi_options.max_iterations = options_.pr_max_iterations;
  markov::PowerIterationResult result;
  int total_iterations = 0;
  // The cache keeps the local rows; the guard loop only rescales the world
  // row per denominator.
  const ExtendedGraphSystem* system =
      &cache.Prepare(fragment, world, denominator, global_size_,
                     options_.uniform_world_links ? WorldLinkWeighting::kUniform
                                                  : WorldLinkWeighting::kScoreProportional);
  for (int guard = 0; guard < 64; ++guard) {
    result = StationaryDistribution(system->matrix, system->teleport, init, pi_options);
    total_iterations += result.iterations;
    if (result.distribution[n] <= denominator + 1e-13) break;
    denominator = result.distribution[n];
    init = result.distribution;  // Warm start for the re-run.
    system = &cache.Rescale(world, denominator);
  }
  last_pr_iterations_ = total_iterations;
  // Score update: Eq. 2 re-weights external (world-node) scores by
  // PR(W)/L(W) in the baseline mode; Eq. 3 leaves them unchanged in
  // take-max mode.
  if (options_.combine_mode == CombineMode::kAverage) {
    world.ScaleScores(result.distribution[n] / denominator);
  }
  return std::move(result.distribution);
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
  WorldFold fold(world_, options_.combine_mode, /*in_place=*/false);
  ExternalFold dropped(fragment_, fold);
  for (graph::Subgraph::LocalIndex i = 0; i < old_fragment.NumLocalPages(); ++i) {
    const graph::PageId page = old_fragment.GlobalId(i);
    if (fragment_.Contains(page)) continue;
    dropped.Add(page, old_fragment.GlobalOutDegree(i), old_scores[i],
                old_fragment.Successors(i));
  }
  fold.Finish();
  RunLocalPageRank();
}

}  // namespace core
}  // namespace jxp
