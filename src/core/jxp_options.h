#ifndef JXP_CORE_JXP_OPTIONS_H_
#define JXP_CORE_JXP_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace jxp {
namespace core {

/// Adversarial behaviour of a *cheating* peer (the paper's Section 7 open
/// problem: "egoistic, cheating, and malicious peers"). The attack corrupts
/// the peer's outgoing meeting messages; its own local computation stays
/// intact (the attacker wants to distort others, typically to boost the
/// perceived authority of its own pages).
struct AttackOptions {
  enum class Type {
    kNone,
    /// Reports all scores (local pages and world knowledge) multiplied by
    /// inflation_factor — self-promotion.
    kScoreInflation,
    /// Reports uniformly random scores in [0, 1] — vandalism.
    kRandomScores,
  };
  Type type = Type::kNone;
  double inflation_factor = 20.0;
  /// Seed of the kRandomScores noise.
  uint64_t seed = 0xbadbadbadULL;
};

/// Defenses an honest peer applies to incoming meeting messages (a
/// simplified TrustJXP: the follow-up work to this paper). Both defenses
/// exploit structural properties of honest messages:
///  - an honest score list is part of a probability distribution, so its
///    local scores can never sum above 1;
///  - for pages both peers host, two honest JXP scores are underestimates
///    of the same true PageRank and therefore close; systematically
///    divergent reports betray manipulation.
struct DefenseOptions {
  bool enabled = false;
  /// Reject messages whose local scores sum above this (honest bound: 1).
  double max_reported_mass = 1.0 + 1e-6;
  /// Reject a partner when the *median* ratio reported/own over the
  /// overlapping pages exceeds this factor (honest divergence stems from
  /// knowledge asymmetry and is far smaller).
  double max_overlap_divergence = 8.0;
};

/// How a peer meeting combines the two peers' graph knowledge.
enum class MergeMode {
  /// Algorithm 2 (baseline): form the full union of the two local graphs
  /// and world nodes, run PageRank on the merged extended graph, then
  /// project back to each peer's own fragment.
  kFullMerge,
  /// Section 4.1 (optimized, the variant the convergence proof covers):
  /// only fold the partner's relevant links into the local world node and
  /// run PageRank on the *local* extended graph.
  kLightWeight,
};

/// How meeting message sizes are obtained.
enum class MeetingWireMode {
  /// Analytic byte model (the pre-wire accounting, Section 6.2's id /
  /// degree / score counts): no bytes are actually serialized. The default;
  /// every simulation result is bit-identical to builds before the wire
  /// layer existed.
  kEstimated,
  /// Real binary framing: each meeting serializes both messages through the
  /// wire codec (src/wire), transport faults act on the actual bytes, and
  /// traffic accounting reports measured encoded sizes (the analytic
  /// estimate is still reported alongside, see MeetingOutcome).
  kMeasured,
};

/// How scores known to both peers are combined during a meeting.
enum class CombineMode {
  /// Baseline: average the two scores; after the PR run, scores of
  /// non-local pages are re-weighted by PR(W)/L(W) (paper Eq. 2).
  kAverage,
  /// Section 4.2 (optimized): take the larger score — safe because JXP
  /// scores never overestimate true PR (Theorem 5.3) — and leave non-local
  /// scores unchanged after the PR run (paper Eq. 3).
  kTakeMax,
};

/// Options of the JXP computation shared by all peers.
struct JxpOptions {
  /// Link-following probability epsilon; 1 - damping is the random-jump
  /// probability (paper uses 0.85).
  double damping = 0.85;
  /// L1 tolerance of each local PageRank run.
  double pr_tolerance = 1e-12;
  /// Iteration cap of each local PageRank run.
  int pr_max_iterations = 300;
  /// Meeting procedure.
  MergeMode merge_mode = MergeMode::kLightWeight;
  /// Score combination policy.
  CombineMode combine_mode = CombineMode::kTakeMax;
  /// Ablation knob (DESIGN.md A2): when true, the world row ignores the
  /// learned external scores and spreads the world mass uniformly over the
  /// known in-linking pages. The paper's weighting (false) is both more
  /// accurate and required for the convergence proof.
  bool uniform_world_links = false;
  /// Whether meeting traffic is byte-accurate (encoded frames) or modeled.
  MeetingWireMode wire_mode = MeetingWireMode::kEstimated;
  /// Adversarial behaviour of this peer (kNone for honest peers).
  AttackOptions attack;
  /// Defenses this peer applies to incoming messages.
  DefenseOptions defense;
};

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_JXP_OPTIONS_H_
