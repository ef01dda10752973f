#ifndef JXP_TESTS_PROPTEST_GENERATORS_H_
#define JXP_TESTS_PROPTEST_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "p2p/faults.h"

namespace jxp {
namespace proptest {

/// Upper bounds for the per-case fault-probability draws; a scenario zeroes
/// the bounds of the faults it must exclude (e.g. the monotone-world-score
/// property excludes stale resumes, which legitimately move a world score
/// back up).
struct PlanLimits {
  double max_drop = 0;
  double max_truncation = 0;
  double max_corruption = 0;
  double max_crash = 0;
  double max_stale_resume = 0;
};

/// One randomized test case: the world's size parameters, the byte faults
/// of each meeting blob, and two faults of the peer processes themselves.
/// Everything heavy (graph, fragments, schedules) is derived from `seed` as
/// a pure function, so a case is reproducible from its parameters alone.
struct FaultCase {
  uint64_t seed = 0;
  size_t num_nodes = 40;
  size_t num_peers = 3;
  size_t num_meetings = 80;
  bool full_merge = false;
  /// Drop, truncation and corruption of each blob in transit.
  p2p::FaultPlan plan;
  /// Per-side probability that a peer crashes after sending its blob and
  /// before applying its partner's: it applies nothing.
  double crash_probability = 0;
  /// Per-side probability that a peer enters the meeting just restarted
  /// from its last checkpoint.
  double stale_resume_probability = 0;

  std::string Describe() const;

  /// Shrink candidates: halved sizes and individually-disabled faults, each
  /// keeping the same seed so the candidate stays fully reproducible.
  std::vector<FaultCase> Shrink() const;
};

/// Draws a random case under `limits`: 16-56 nodes, 2-5 peers, 30-120
/// meetings, and each fault probability uniform in [0, limit].
FaultCase GenerateFaultCase(uint64_t seed, const PlanLimits& limits);

/// The case's world: a Barabási-Albert graph and overlapping random
/// fragments that jointly cover it (every page is assigned to at least one
/// peer; none is empty).
struct GeneratedWorld {
  graph::Graph graph;
  std::vector<std::vector<graph::PageId>> fragments;
};

GeneratedWorld BuildWorld(const FaultCase& c);

/// One event of a churn schedule: a meeting between two peers, or a
/// fragment change (peer re-crawl) of one peer.
struct ChurnEvent {
  enum class Kind : uint8_t {
    kMeeting,
    /// The peer crawls one page it did not hold.
    kFragmentAdd,
    /// The peer drops one of its pages (never the last one).
    kFragmentRemove,
    /// The peer swaps one page: drop one, crawl another.
    kFragmentEdit,
  };
  Kind kind = Kind::kMeeting;
  /// Meeting participants (kMeeting, peer_a != peer_b), or the churned peer
  /// (fragment events; peer_b unused).
  size_t peer_a = 0;
  size_t peer_b = 0;
  /// Per-event randomness of the fragment mutation / meeting processing.
  uint64_t seed = 0;
};

/// A randomized churn schedule: meetings interleaved with fragment
/// add/remove/edit events over a fixed global graph (churn re-partitions the
/// graph, so centralized PageRank — the oracle — is unchanged by it).
/// Everything heavy is a pure function of the parameters below; see
/// FaultCase for the reproducibility contract.
struct ChurnCase {
  uint64_t seed = 0;
  size_t num_nodes = 40;
  size_t num_peers = 3;
  size_t num_events = 60;
  /// Probability that an event is a fragment change instead of a meeting.
  double churn_probability = 0.2;
  bool full_merge = false;

  std::string Describe() const;

  /// Shrink candidates: halved sizes, churn disabled, light-weight merge —
  /// each keeping the same seed.
  std::vector<ChurnCase> Shrink() const;
};

/// Draws a random churn case: 16-56 nodes, 2-5 peers, 24-96 events, churn
/// probability in [0.1, 0.4].
ChurnCase GenerateChurnCase(uint64_t seed);

/// The case's world; same construction as the FaultCase overload.
GeneratedWorld BuildWorld(const ChurnCase& c);

/// The case's event sequence (length num_events), derived purely from the
/// case parameters. Fragment events rotate add/remove/edit and pick a
/// random peer; meetings pick a random ordered peer pair.
std::vector<ChurnEvent> BuildChurnSchedule(const ChurnCase& c);

/// Applies a fragment event to `pages` (the peer's current page set) over a
/// global graph of `num_nodes` pages, returning the new set. Deterministic
/// in the event's seed; degenerates to a no-op when the requested mutation
/// is impossible (nothing left to add / remove). The result is never empty.
std::vector<graph::PageId> ApplyChurnEvent(const ChurnEvent& e, size_t num_nodes,
                                           std::vector<graph::PageId> pages);

}  // namespace proptest
}  // namespace jxp

#endif  // JXP_TESTS_PROPTEST_GENERATORS_H_
