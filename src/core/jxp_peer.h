#ifndef JXP_CORE_JXP_PEER_H_
#define JXP_CORE_JXP_PEER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/extended_graph.h"
#include "core/jxp_options.h"
#include "core/world_node.h"
#include "graph/subgraph.h"
#include "p2p/network.h"

namespace jxp {
namespace core {

/// Measurements of one peer meeting.
struct MeetingOutcome {
  /// Total bytes moved over the wire (both directions). Under
  /// MeetingWireMode::kEstimated this is the analytic model; under
  /// kMeasured it is the actual encoded frame size.
  double wire_bytes = 0;
  /// Bytes each side sent (its fragment structure + score list + world
  /// node); wire_bytes is their sum.
  double bytes_sent_initiator = 0;
  double bytes_sent_partner = 0;
  /// The analytic size estimate of the same messages, always computed so
  /// fig11/fig12 can report measured and estimated side by side. Equal to
  /// the bytes_sent_* fields in kEstimated mode.
  double estimated_bytes_initiator = 0;
  double estimated_bytes_partner = 0;
  double estimated_wire_bytes = 0;
};

/// Outcome of applying a remotely-received meeting message (the networked
/// runtime path, where the two halves of a meeting run in different
/// processes and only bytes cross between them).
struct RemoteMeetingApply {
  /// The message decoded (possibly only a salvaged prefix) and this peer's
  /// state advanced. False when nothing usable arrived — the peer's state
  /// is then bit-identical to before the call.
  bool applied = false;
  /// The decoder rejected part of the message and only the intact frame
  /// prefix applied (torn or corrupted transfer).
  bool salvaged = false;
  /// Bytes of fully-decoded frames (wasted = received - consumed).
  size_t bytes_consumed = 0;
  /// Power iterations this peer's PageRank run needed.
  int pr_iterations = 0;
};

/// A JXP peer: a local Web fragment, the world node summarizing everything
/// else, and the current JXP score list (paper Section 3).
///
/// Construction runs the initialization procedure (Algorithm 1): local
/// scores start at 1/N, the world node at (N-n)/N, and one local PageRank
/// run on the extended graph produces the initial JXP scores. Meetings
/// (JxpPeer::Meet) then refine the scores; with fair meeting schedules they
/// converge to the true global PageRank (Theorem 5.4).
class JxpPeer {
 public:
  /// Creates the peer over `fragment`. `global_size` is the (estimated)
  /// total number of pages N in the network (Section 3 discusses why
  /// assuming this estimate is uncritical; the estimate may be off — see the
  /// graph-size ablation).
  JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
          const JxpOptions& options);

  /// Restores a peer from persisted state (see core/state_io.h): members
  /// are adopted as-is and *no* initialization PageRank run is performed,
  /// so a saved and re-loaded peer resumes exactly where it stopped.
  JxpPeer(p2p::PeerId id, graph::Subgraph fragment, size_t global_size,
          const JxpOptions& options, std::vector<double> scores, WorldNode world,
          double world_score);

  JxpPeer(const JxpPeer&) = delete;
  JxpPeer& operator=(const JxpPeer&) = delete;
  JxpPeer(JxpPeer&&) noexcept = default;
  JxpPeer& operator=(JxpPeer&&) noexcept = default;

  /// Performs one meeting: both peers exchange their extended local graphs
  /// and score lists and each recomputes its scores independently (the
  /// paper's asynchronous double-sided update, serialized here). The merge
  /// procedure, score combination and wire mode follow the peers' options;
  /// both peers must share them.
  ///
  /// Only the delivery of each direction's message depends on the wire
  /// mode: under kEstimated the receiver gets a copy of the sender's state;
  /// under kMeasured the meeting is the daemons' exchange, both sides'
  /// EncodeMeetingBytes and then each side's ApplyMeetingBytes of the
  /// other's bytes. Meet never faults a delivery: byte faults
  /// (p2p::FaultPlan) act between EncodeMeetingBytes and ApplyMeetingBytes,
  /// on a daemon's socket or in a test's meeting loop.
  static MeetingOutcome Meet(JxpPeer& initiator, JxpPeer& partner);

  /// Serializes this peer's meeting message; the kMeasured Meet() sends
  /// these bytes, so a networked exchange of them is bit-identical to it.
  /// Snapshot semantics: callers exchanging messages must encode BOTH sides
  /// before applying either (the meeting is a simultaneous exchange).
  /// Records the message's jxp.wire.{encode_ms,message_bytes,
  /// compression_ratio} samples.
  std::vector<uint8_t> EncodeMeetingBytes() const;

  /// Applies a meeting message received as raw bytes: runs the
  /// fault-tolerant decode salvage, then this peer's half of the meeting
  /// (merge + local PageRank). One side of a kMeasured Meet(). Records the
  /// decode's jxp.wire.decode_ms sample.
  RemoteMeetingApply ApplyMeetingBytes(std::span<const uint8_t> bytes);

  /// The peer's network id.
  p2p::PeerId id() const { return id_; }

  /// The local fragment.
  const graph::Subgraph& fragment() const { return fragment_; }

  /// The world node.
  const WorldNode& world_node() const { return world_; }

  /// Current JXP score of the world node (alpha_w).
  double world_score() const { return world_score_; }

  /// Current JXP scores of local pages, indexed by Subgraph local index.
  const std::vector<double>& local_scores() const { return scores_; }

  /// JXP score of a page by global id; 0 when the page is not local.
  double ScoreOfGlobal(graph::PageId page) const;

  /// Sum of the local page scores (1 - world_score, Theorem 5.2's monotone
  /// quantity).
  double LocalScoreMass() const { return 1.0 - world_score_; }

  /// Number of meetings this peer has taken part in.
  size_t num_meetings() const { return num_meetings_; }

  /// CPU milliseconds (the calling thread's) of each merge procedure this
  /// peer performed, in meeting order (Table 1 reports the per-peer average).
  const std::vector<double>& meeting_cpu_millis() const { return meeting_cpu_millis_; }

  /// Number of meetings whose incoming message this peer rejected as
  /// implausible (see DefenseOptions).
  size_t rejected_meetings() const { return rejected_meetings_; }

  /// World score after each of this peer's meetings, in meeting order.
  const std::vector<double>& world_score_history() const {
    return world_score_history_;
  }

  /// The options (shared network-wide).
  const JxpOptions& options() const { return options_; }

  /// The global page count estimate N.
  size_t global_size() const { return global_size_; }

  /// Wire size of this peer's meeting message: fragment structure + score
  /// list + world node (Section 6.2's message accounting: ids, degrees and
  /// scores only, never page content).
  double MessageWireBytes() const;

  /// Replaces the local fragment (peer re-crawl / content change, Section
  /// 7). Scores of retained pages are kept; new pages start at 1/N; world
  /// knowledge pointing at dropped pages is discarded; then one local PR
  /// run refreshes the scores.
  void ReplaceFragment(graph::Subgraph fragment);

 private:
  /// Immutable snapshot of the state a peer ships in a meeting message.
  struct PeerView {
    /// The sender's pages: MakeView views its fragment, ApplyMeetingBytes
    /// the decoded message's columns. No page index is built for them.
    graph::PageTableView pages;
    std::vector<double> scores;  // By page-table position.
    WorldNode world;
  };

  /// Copies the state this peer ships (corrupted per AttackOptions): the
  /// estimated-wire meeting's snapshot, and the measured path's message of
  /// a cheating peer.
  PeerView MakeView() const;

  /// One side of a meeting: absorb the partner's message, recompute.
  void ProcessMeeting(const PeerView& partner);

  /// Defense gate: true when the partner's message should be discarded as
  /// implausible (DefenseOptions).
  bool ShouldRejectMessage(const PeerView& partner) const;

  /// Light-weight procedure (Algorithm 3 / Section 4.1).
  void ProcessLightWeight(const PeerView& partner);

  /// Full-merge procedure (Algorithm 2).
  void ProcessFullMerge(const PeerView& partner);

  /// Combines a partner-reported score for a *local* page into scores_[i].
  void CombineLocalScore(graph::Subgraph::LocalIndex i, double reported);

  /// Runs the local PageRank on the extended graph from the current scores
  /// and applies the Eq. 2 / Eq. 3 score update rule (SolveExtended).
  void RunLocalPageRank();

  /// The Eq. 8 solve shared by both merge procedures: power iteration on
  /// `fragment` plus `world`, whose world row weighs each entry by
  /// alpha(r)/`denominator`, from `init` (local scores, world score last),
  /// inside the self-consistent-denominator guard loop. Under kAverage it
  /// then re-weights `world`'s scores by PR(W)/L(W) (Eq. 2). Records the
  /// iteration count; returns the stationary distribution, world node last.
  std::vector<double> SolveExtended(ExtendedSystemCache& cache,
                                    const graph::Subgraph& fragment, WorldNode& world,
                                    std::vector<double> init, double denominator);

  p2p::PeerId id_;
  graph::Subgraph fragment_;
  size_t global_size_;
  JxpOptions options_;

  std::vector<double> scores_;  // JXP scores of local pages, by local index.
  double world_score_ = 1.0;
  WorldNode world_;

  size_t num_meetings_ = 0;
  size_t rejected_meetings_ = 0;
  std::vector<double> meeting_cpu_millis_;
  std::vector<double> world_score_history_;
  int last_pr_iterations_ = 0;
  /// Cached extended-system CSR: the local rows survive across meetings
  /// (only ReplaceFragment invalidates them) and the denominator guard loop
  /// of SolveExtended rescales the world row instead of rebuilding.
  ExtendedSystemCache extended_cache_;
};

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_JXP_PEER_H_
