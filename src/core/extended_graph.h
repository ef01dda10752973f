#ifndef JXP_CORE_EXTENDED_GRAPH_H_
#define JXP_CORE_EXTENDED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/world_node.h"
#include "graph/subgraph.h"
#include "markov/sparse_matrix.h"

namespace jxp {
namespace core {

/// How the world node's outgoing links are weighted (ablation A2 in
/// DESIGN.md; the paper always uses score-proportional weights).
enum class WorldLinkWeighting {
  /// Paper Eq. 8: weight (1/out(r)) * alpha(r)/alpha_w per link.
  kScoreProportional,
  /// Strawman: ignore the learned scores; every known external in-linking
  /// page is assumed to carry an equal share of the world mass.
  kUniform,
};

/// The transition system of a peer's extended local graph G' = G + W
/// (paper Section 5, Eqs. 5-10): n local states plus the world node as
/// state n.
struct ExtendedGraphSystem {
  /// (n+1) x (n+1) link matrix. Local rows follow Eq. 6/7; the world row
  /// follows Eq. 8/9. Dangling local pages have empty rows (their mass is
  /// redistributed along `teleport`).
  markov::SparseMatrix matrix;
  /// Random-jump distribution (Eq. 10): 1/N per local page, (N-n)/N to the
  /// world node. Dangling mass follows it too: a dangling page in the
  /// global chain jumps uniformly over all N pages, of which n are local.
  std::vector<double> teleport;
  /// True iff the world row's outgoing mass had to be clamped because the
  /// stored external scores momentarily exceeded the world score (a
  /// transient of the take-max combination; see JxpPeer).
  bool world_row_clamped = false;
};

/// Incremental builder of ExtendedGraphSystem, exploiting that only the
/// world row depends on the denominator alpha_w and on the (per-meeting)
/// world-node scores, while the local rows depend on the fragment alone:
///
/// - local rows are built once per fragment and reused across meetings;
///   they are dropped only by InvalidateFragment() (called on
///   ReplaceFragment, the sole structural fragment change);
/// - Prepare() groups the world node's links by local target — a counting
///   sort that keeps the world node's page order within a target — and
///   keeps one 4-byte world-entry index per projected link, then generates
///   the world row for the given denominator: O(world links), no comparison
///   sort, no local-row rebuild;
/// - Rescale() regenerates the world row for a new denominator, reading
///   out(r) and alpha(r) from the same world node — the O(world links) step
///   JxpPeer's self-consistent denominator guard loop runs instead of a
///   full BuildExtendedSystem.
///
/// Each rebuild computes one weight per world entry and sums the weights of
/// a target's links in (target, page) order: the arithmetic of a fresh
/// BuildExtendedSystem at the same denominator, so the cached and the
/// freshly built systems agree bit for bit. That order depends only on the
/// world node's content: a peer restored from a state_io file computes
/// bit-identical scores. The per-link counting-sort and per-entry weight
/// buffers are per-thread scratch shared by every cache, not held between
/// calls.
class ExtendedSystemCache {
 public:
  ExtendedSystemCache() = default;

  /// Returns the extended system of `fragment` + `world` at denominator
  /// `world_score` (see BuildExtendedSystem for the semantics). The
  /// returned reference stays valid — and is updated in place — across
  /// subsequent Prepare/Rescale calls. The fragment must be unchanged since
  /// the previous Prepare unless InvalidateFragment() was called in
  /// between; the world node may change freely between Prepare calls.
  const ExtendedGraphSystem& Prepare(const graph::Subgraph& fragment,
                                     const WorldNode& world, double world_score,
                                     size_t global_size, WorldLinkWeighting weighting);

  /// Regenerates the world row for a new denominator, keeping the local
  /// rows, the link grouping, and the teleport vector of the last Prepare.
  /// `world` must be the world node of the last Prepare, unchanged since.
  const ExtendedGraphSystem& Rescale(const WorldNode& world, double world_score);

  /// Drops the cached local rows; the next Prepare rebuilds them. Must be
  /// called whenever the fragment changes structurally (ReplaceFragment).
  void InvalidateFragment() { local_rows_valid_ = false; }

  /// Moves the built system out (used by the one-shot BuildExtendedSystem).
  ExtendedGraphSystem TakeSystem() && { return std::move(system_); }

 private:
  void RebuildLocalRows(const graph::Subgraph& fragment);
  void RebuildWorldRow(const WorldNode& world, double denominator);

  bool local_rows_valid_ = false;
  bool prepared_ = false;
  size_t num_local_ = 0;
  size_t global_size_ = 0;
  WorldLinkWeighting weighting_ = WorldLinkWeighting::kScoreProportional;
  /// The world node's shape at the last Prepare, which Rescale checks.
  size_t world_entries_ = 0;
  size_t world_links_ = 0;
  /// World-entry indices grouped by local target: external page r =
  /// pages[terms_[k]] contributes weight (1/out(r)) * alpha(r)/alpha_w to
  /// target i for each k in [term_offsets_[i], term_offsets_[i + 1]), in
  /// page order.
  std::vector<uint32_t> terms_;
  std::vector<uint32_t> term_offsets_;
  ExtendedGraphSystem system_;
};

/// Builds the extended transition system of `fragment` + `world`:
///
/// - local page i with global out-degree d: weight 1/d per local successor;
///   the external successors contribute weight (#external successors)/d to
///   the world column (Eq. 7);
/// - world row: for each known external in-linking page r with targets T and
///   score alpha(r), weight (1/out(r)) * alpha(r)/world_score per target
///   (Eq. 8); the self-loop absorbs the rest (Eq. 9);
/// - teleport per Eq. 10 with `global_size` = N.
///
/// `world_score` is the peer's current world-node score (alpha_w at meeting
/// t-1), which weights the world row. One-shot convenience over
/// ExtendedSystemCache; repeated builds over the same fragment should use
/// the cache directly.
ExtendedGraphSystem BuildExtendedSystem(
    const graph::Subgraph& fragment, const WorldNode& world, double world_score,
    size_t global_size,
    WorldLinkWeighting weighting = WorldLinkWeighting::kScoreProportional);

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_EXTENDED_GRAPH_H_
