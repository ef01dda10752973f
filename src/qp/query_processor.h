#ifndef JXP_QP_QUERY_PROCESSOR_H_
#define JXP_QP_QUERY_PROCESSOR_H_

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
