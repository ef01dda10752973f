#ifndef JXP_QP_QUERY_PROCESSOR_H_
#define JXP_QP_QUERY_PROCESSOR_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "qp/compressed_index.h"

namespace jxp {
namespace qp {

/// Work counters of one top-k evaluation. Pure functions of (index, query,
/// k) — independent of timing and thread count — so aggregating them into
/// `jxp.qp.*` metrics keeps snapshots bit-identical at any parallelism.
struct QueryStats {
  DecodeStats decode;
  /// Documents fully scored (all query terms aggregated in canonical order).
  size_t candidates_scored = 0;
  /// Documents ruled out by an upper-bound check before full scoring
  /// (always 0 for the exhaustive processor). Documents inside dead ranges
  /// are never enumerated at all and appear in neither counter.
  size_t docs_pruned = 0;
  /// Live-block computation outcome, accumulated over every (re)build of
  /// the range set: docid ranges whose combined block bounds can still beat
  /// the threshold vs. ranges proven dead (MaxScore only).
  size_t live_ranges = 0;
  size_t dead_ranges = 0;

  bool operator==(const QueryStats&) const = default;

  void MergeFrom(const QueryStats& other) {
    decode.MergeFrom(other.decode);
    candidates_scored += other.candidates_scored;
    docs_pruned += other.docs_pruned;
    live_ranges += other.live_ranges;
    dead_ranges += other.dead_ranges;
  }
};

/// Optional per-run wall-time profile of one top-k evaluation, in integer
/// nanoseconds. Pure diagnostics: timing never feeds back into evaluation,
/// so results are bit-identical whether a profile is collected or not.
/// When the caller passes nullptr the processors read no clocks at all
/// (zero-cost-off, matching the obs layer's contract).
///
/// Stage semantics per processor:
///   - ExhaustiveTopK: decode_ns = the TAAT cursor walk (decode +
///     accumulate), scoring_ns = prior fusion over the accumulator,
///     heap_ns = final partial sort.
///   - MaxScoreTopK: scoring_ns = canonical-order rescoring of surviving
///     candidates, heap_ns = top-k heap maintenance + final sort,
///     decode_ns = the rest of the descent (cursor advancement, block
///     seeks, bound checks) measured as total minus the other two.
struct StageNanos {
  uint64_t decode_ns = 0;
  uint64_t scoring_ns = 0;
  uint64_t heap_ns = 0;

  void MergeFrom(const StageNanos& other) {
    decode_ns += other.decode_ns;
    scoring_ns += other.scoring_ns;
    heap_ns += other.heap_ns;
  }
};

/// The documented result order: fused score descending, page id ascending on
/// ties. Both processors break ties this way, which is what makes top-k
/// results well-defined when distinct documents score bit-identically.
inline bool BetterResult(double score_a, graph::PageId page_a, double score_b,
                         graph::PageId page_b) {
  if (score_a != score_b) return score_a > score_b;
  return page_a < page_b;
}

/// (page, fused score) pairs, best first under BetterResult, at most k.
using TopKList = std::vector<std::pair<graph::PageId, double>>;

/// Correctness oracle: term-at-a-time exhaustive evaluation over the
/// compressed lists. Every posting of every query term is decoded; each
/// candidate's tf*idf is accumulated in query-term order (bit-identical to
/// MinervaEngine::TfIdfScore) and fused with the static prior when the index
/// was frozen with prior_weight > 0:
///   score(d) = (1 - w) * tfidf(d) + w * prior(d)   [w == 0 => plain tfidf].
/// `stats` and `stages` are optional (nullptr = not collected).
TopKList ExhaustiveTopK(const CompressedPeerIndex& index,
                        std::span<const search::TermId> query, size_t k,
                        QueryStats* stats, StageNanos* stages = nullptr);

/// Tuning knobs of the MaxScore processor. Every setting preserves
/// bit-identity with ExhaustiveTopK; only the amount of decode work changes.
struct MaxScoreOptions {
  /// Threshold the top-k heap is primed with before descent (0 = cold). The
  /// caller must guarantee the value is a strict lower bound of the true
  /// k-th best fused score over the union of all result lists the query
  /// will be merged across (QueryServer derives it from term-level primers
  /// and the query-threshold cache, deflated by 1e-12 — never the raw k-th
  /// score itself). A primed run may return fewer or different entries
  /// *below* the primed threshold, but everything scoring above it is
  /// exact, which is what the merged top-k consumes.
  double primed_threshold = 0;
  /// Per-query live-block computation: before a candidate is enumerated,
  /// docid ranges whose combined per-block upper bounds cannot beat the
  /// current threshold are skipped without cursor decode work. The range
  /// set is (re)built when the threshold first materializes and whenever a
  /// list leaves the essential set — a pure function of (index, query, k,
  /// primed_threshold), so DecodeStats stay deterministic.
  bool live_blocks = true;
};

/// Term frequencies below this read their natural log from LogTf's table.
inline constexpr uint32_t kLogTfTableSize = 256;

/// std::log(tf), bit for bit. Frequencies below kLogTfTableSize come from a
/// table filled at program start by std::log itself on inputs the compiler
/// cannot fold, so each entry is the value the run-time std::log returns;
/// larger frequencies call std::log. MaxScoreTopK scores with it;
/// ExhaustiveTopK, the oracle, keeps calling std::log.
double LogTf(uint32_t tf);

class MaxScoreScratch;

/// MaxScoreTopK into reusable storage: evaluates exactly as the overloads
/// below and returns the result held in `scratch`, valid until the scratch's
/// next use. Cursors (with their block buffers), bound arrays, the live-range
/// set and the top-k heap all live in the scratch, so a warm call allocates
/// nothing. QueryServer keeps one scratch per query for all its peer calls.
const TopKList& MaxScoreTopK(const CompressedPeerIndex& index,
                             std::span<const search::TermId> query, size_t k,
                             const MaxScoreOptions& options, MaxScoreScratch& scratch,
                             QueryStats* stats, StageNanos* stages = nullptr);

/// Working storage of MaxScoreTopK, reused across calls. One scratch serves
/// one call at a time; its contents between calls carry no meaning, so a
/// result never depends on what the scratch served before.
class MaxScoreScratch {
  friend const TopKList& MaxScoreTopK(const CompressedPeerIndex& index,
                                      std::span<const search::TermId> query, size_t k,
                                      const MaxScoreOptions& options,
                                      MaxScoreScratch& scratch, QueryStats* stats,
                                      StageNanos* stages);

  /// One query list during a call.
  struct ListCursor {
    size_t query_pos = 0;
    const CompressedPeerIndex::TermList* entry = nullptr;
    BlockPostingList::Cursor cursor;
    double ub = 0;  // Quantized list-level impact upper bound, widened.
  };

  /// Per-query live-block computation (DESIGN.md §6h): the docid space is
  /// cut at every block boundary of every query list, and each resulting
  /// range is scored by the sum of the covering blocks' quantized max
  /// impacts (plus the covering max prior under fused ranking). A range
  /// whose slack-inflated bound cannot beat the threshold is *dead*: no
  /// document inside it can enter the top-k, so the candidate loop jumps
  /// over it without moving past one posting. Within a range every list's
  /// covering block is constant (the cuts include all block edges), which is
  /// what makes the per-range bound a true upper bound of any document in it.
  struct LiveRanges {
    /// Range r covers docids [start[r], start[r+1]) (the last range is open).
    std::vector<uint32_t> start;
    std::vector<uint8_t> live;
    /// Build's per-list block pointer.
    std::vector<size_t> block_of;
    size_t at = 0;
    bool active = false;

    void Build(std::span<const ListCursor> lists, double w, double theta, double slack,
               QueryStats* s);
    void Advance(uint32_t d) {
      while (at + 1 < start.size() && start[at + 1] <= d) ++at;
    }
    bool IsLive(uint32_t d) {
      if (!active) return true;
      Advance(d);
      return live[at] != 0;
    }
    /// First docid >= d inside a live range (kEndDocid when none remains).
    uint32_t NextLiveStart(uint32_t d) {
      Advance(d);
      for (size_t r = at; r < start.size(); ++r) {
        if (live[r] != 0) return std::max(d, start[r]);
      }
      return BlockPostingList::kEndDocid;
    }
  };

  /// One entry per query term seen so far; a call uses lists_[0, n) for its
  /// n indexed terms, and the rest keep their cursors' buffers.
  std::vector<ListCursor> lists_;
  std::vector<double> prefix_ub_;
  std::vector<ListCursor*> by_query_;
  LiveRanges ranges_;
  /// The top-k heap during a call, the sorted result after it.
  TopKList results_;
};

/// Fast path: document-at-a-time MaxScore with block-max skipping. Lists are
/// split into essential and non-essential by their quantized score upper
/// bounds; candidates come only from essential lists, and non-essential
/// lists are probed cheapest-bound-first with a shallow SeekBlock (block
/// metadata only) before any decompression. All pruning compares upper
/// bounds inflated by a tiny slack against the current k-th score, so a
/// document is only discarded when it provably cannot enter the top-k;
/// survivors are re-scored in canonical query-term order. The returned list
/// is therefore bit-identical to ExhaustiveTopK — same pages, same scores —
/// while decoding strictly less (postings are only materialized when a
/// block's upper bound keeps the document alive).
TopKList MaxScoreTopK(const CompressedPeerIndex& index,
                      std::span<const search::TermId> query, size_t k,
                      QueryStats* stats);

/// As above with explicit options (threshold priming, live-block skipping)
/// and an optional stage profile.
TopKList MaxScoreTopK(const CompressedPeerIndex& index,
                      std::span<const search::TermId> query, size_t k,
                      const MaxScoreOptions& options, QueryStats* stats,
                      StageNanos* stages = nullptr);

}  // namespace qp
}  // namespace jxp

#endif  // JXP_QP_QUERY_PROCESSOR_H_
