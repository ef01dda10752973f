#ifndef JXP_CORE_WORLD_NODE_H_
#define JXP_CORE_WORLD_NODE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/jxp_options.h"
#include "graph/graph.h"
#include "wire/meeting_codec.h"

namespace jxp {
namespace core {

/// The score-combination rule of `mode` (paper Section 4.2): the stored
/// score `current` meets a newly reported one.
inline double CombineScores(CombineMode mode, double current, double reported) {
  return mode == CombineMode::kTakeMax ? std::max(current, reported)
                                       : 0.5 * (current + reported);
}

/// What a peer knows about one external page that links into its local
/// graph: the page's global out-degree, its most recently learned JXP score,
/// and which local pages it points to. This is the paper's "for every page r
/// in W we store out(r) and alpha(r), both learned from a previous meeting".
/// A view into the WorldNode's storage, valid until the node changes.
struct ExternalPageInfo {
  graph::PageId page = 0;
  /// Global out-degree of the external page (> 0 by construction: it has at
  /// least one out-link, namely the one into the local graph).
  uint32_t out_degree = 0;
  /// Last learned JXP score of the page.
  double score = 0;
  /// Local pages (global ids, sorted unique, never empty) it links to.
  std::span<const graph::PageId> targets;
};

/// The JXP world node: the aggregate of all pages a peer has not crawled.
///
/// It carries the peer's accumulated knowledge of *external in-links*: for
/// each known external page that points into the local fragment, an entry
/// with the page's out-degree, score and local targets. Links from external
/// pages to other external pages are represented implicitly by the world
/// node's self-loop, whose weight the extended-graph construction derives
/// as the complement of the outgoing weights (paper Eq. 9).
///
/// Storage is one flat store sorted by page (wire::WorldColumns): parallel
/// page / out-degree / score arrays, the targets as one CSR array, and a
/// sorted dangling array. Every meeting step is a sorted pass over it: the
/// codec encodes it in place and decodes straight into it, and a meeting
/// folds its observations in with a WorldFold, which raises known entries in
/// place and merges what is new with one sorted Merge. Its content — and so
/// everything computed from it — is a function of what was observed, never
/// of the order of observation.
class WorldNode {
 public:
  /// The most links a node holds: its target offsets are 32-bit.
  static constexpr size_t kMaxLinks = std::numeric_limits<uint32_t>::max();

  WorldNode() = default;

  /// Adopts columns that satisfy the wire::WorldColumns invariants, as the
  /// meeting codec's decoder validates them element by element; checks only
  /// their shape (column sizes, first and last offset).
  explicit WorldNode(wire::WorldColumns columns);

  /// Appends knowledge about external page `page`, which must sort after
  /// every entry already present: builds a batch for Merge in one pass.
  /// `targets` must be sorted unique, non-empty and at most `out_degree`,
  /// and the node must stay within kMaxLinks links.
  void Append(graph::PageId page, uint32_t out_degree, double score,
              std::span<const graph::PageId> targets);

  /// Appends an external *dangling* page (out-degree 0), which must sort
  /// after every dangling page already present. Under the
  /// uniform-redistribution convention a dangling page effectively links to
  /// every page, so its score mass flows 1/N to each local page; the
  /// extended-graph construction adds that flow to the world row.
  void AppendDangling(graph::PageId page, double score);

  /// Folds `batch` in with one sorted merge. A page new to this node is
  /// adopted as reported. A known page unions its target lists and combines
  /// its scores per `mode`.
  ///
  /// Conflicting out-degree reports for one page resolve to the larger
  /// value, which gives the smaller per-link flow alpha(r)/out(r) and so
  /// keeps Theorem 5.3; so does raising it to the target count when a
  /// target union outgrows it. Each resolution counts in
  /// jxp.world.out_degree_conflicts.
  ///
  /// The union is built in a per-thread scratch store; each column it
  /// rewrites (the entry columns when `batch` has entries, the dangling
  /// ones when it has dangling records) is copied back at exact size.
  void Merge(WorldNode batch, CombineMode mode);

  /// Removes the entries and dangling records of the pages satisfying
  /// `erase` (pages that became local, or that a merged graph now holds).
  template <typename Predicate>
  void EraseIf(Predicate erase) {
    Compact(erase, [](graph::PageId) { return true; });
  }

  /// Drops targets not satisfying `keep` and erases entries left with no
  /// targets. Used to project a world node onto a fragment.
  template <typename Predicate>
  void FilterTargets(Predicate keep) {
    Compact([](graph::PageId) { return false; }, keep);
  }

  /// Scales every stored external score by `factor` (the Eq. 2 re-weighting
  /// of the baseline combine mode).
  void ScaleScores(double factor);

  /// Number of known external in-linking pages.
  size_t NumEntries() const { return columns_.pages.size(); }

  /// Total number of known external in-links (sum of target-list sizes).
  size_t NumLinks() const { return columns_.targets.size(); }

  /// Number of known external dangling pages.
  size_t NumDangling() const { return columns_.dangling_pages.size(); }

  /// Entry `e` in page order, e < NumEntries().
  ExternalPageInfo Entry(size_t e) const {
    return {columns_.pages[e], columns_.out_degrees[e], columns_.scores[e],
            columns_.Targets(e)};
  }

  /// Lookup by page; nullopt if unknown.
  std::optional<ExternalPageInfo> Find(graph::PageId page) const;

  /// Score of a known external dangling page; nullopt if unknown.
  std::optional<double> FindDangling(graph::PageId page) const;

  /// The flat, page-sorted store.
  const wire::WorldColumns& columns() const { return columns_; }

  /// Sum of the known external dangling pages' scores, in page order.
  double TotalDanglingScore() const;

  /// Wire size in bytes when shipped in a meeting message: per entry one
  /// page id (8) + out-degree (4) + score (8) + one id per target; per
  /// dangling entry id (8) + score (8).
  double WireBytes() const;

 private:
  /// In-place compaction behind EraseIf and FilterTargets: drops the pages
  /// satisfying `erase`, then the targets failing `keep`, then the entries
  /// left without targets.
  template <typename Erase, typename Keep>
  void Compact(Erase erase, Keep keep) {
    wire::WorldColumns& c = columns_;
    size_t entries = 0;
    size_t links = 0;
    uint32_t begin = 0;  // Read ahead of the compaction, which rewrites offsets.
    for (size_t e = 0; e < c.pages.size(); ++e) {
      const uint32_t end = c.target_offsets[e + 1];
      const size_t first = links;
      if (!erase(c.pages[e])) {
        for (uint32_t l = begin; l < end; ++l) {
          if (keep(c.targets[l])) c.targets[links++] = c.targets[l];
        }
      }
      begin = end;
      if (links == first) continue;
      c.pages[entries] = c.pages[e];
      c.out_degrees[entries] = c.out_degrees[e];
      c.scores[entries] = c.scores[e];
      c.target_offsets[++entries] = static_cast<uint32_t>(links);
    }
    c.pages.resize(entries);
    c.out_degrees.resize(entries);
    c.scores.resize(entries);
    c.target_offsets.resize(entries + 1);
    c.targets.resize(links);
    size_t dangling = 0;
    for (size_t d = 0; d < c.dangling_pages.size(); ++d) {
      if (erase(c.dangling_pages[d])) continue;
      c.dangling_pages[dangling] = c.dangling_pages[d];
      c.dangling_scores[dangling++] = c.dangling_scores[d];
    }
    c.dangling_pages.resize(dangling);
    c.dangling_scores.resize(dangling);
  }

  friend class WorldFold;

  wire::WorldColumns columns_;
};

/// How a WorldFold disposed of its reports.
struct FoldTally {
  /// A known page and targets the node already held; nothing was raised.
  uint64_t unchanged = 0;
  /// A known page and targets the node already held; its score or
  /// out-degree was raised in place.
  uint64_t in_place = 0;
  /// A new page or a new target (or any report with the in-place step
  /// off): it went through Merge.
  uint64_t structural = 0;
};

/// One meeting's fold of reports about external pages into a WorldNode
/// (the light-weight merge, Section 4.1): a merge join of page-sorted
/// report streams against the node's page-sorted columns.
///
/// With `in_place` set, a report about a page the node knows, whose targets
/// the node already holds, raises that entry's out-degree and score in
/// place; a disagreeing out-degree counts in jxp.world.out_degree_conflicts,
/// as in Merge. A dangling report about a known dangling page raises its
/// score. Every other report — a new page, a new target, or any report
/// without `in_place` — joins its stream's batch, and Finish folds the
/// batches in with Merge. The node, conflict count included, ends exactly as
/// if every report had gone through Merge, provided `in_place` is only set
/// under kTakeMax and for streams that report no entry page twice.
///
/// Each stream reports ascending pages (entries and dangling pages each in
/// order). The cursors into the node gallop, so a stream costs
/// O(reports * log gap) comparisons, not one per entry of the node.
class WorldFold {
 public:
  WorldFold(WorldNode& world, CombineMode mode, bool in_place);

  /// Starts the second report stream (the first starts with the fold). Its
  /// batch merges into the first stream's before the node, so a page both
  /// streams report combines first, as from one message.
  void NextStream();

  /// Folds the report of page `page`, whose targets inside the receiver's
  /// fragment are `targets` (as WorldNode::Append requires them).
  void Add(graph::PageId page, uint32_t out_degree, double score,
           std::span<const graph::PageId> targets);

  /// Folds the report of dangling page `page`.
  void AddDangling(graph::PageId page, double score);

  /// Merges the structural reports into the node; call once, last.
  void Finish();

  const FoldTally& tally() const { return tally_; }

 private:
  WorldNode& world_;
  CombineMode mode_;
  bool in_place_;
  /// One batch per stream.
  WorldNode batches_[2];
  size_t stream_ = 0;
  /// Where the current stream's last entry and dangling reports landed.
  size_t entry_cursor_ = 0;
  size_t dangling_cursor_ = 0;
  /// Out-degree conflicts of the in-place step.
  uint64_t conflicts_ = 0;
  FoldTally tally_;
};

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_WORLD_NODE_H_
