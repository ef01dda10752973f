#include "qp/query_processor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/timer.h"

namespace jxp {
namespace qp {

namespace {

/// Multiplicative inflation applied to every upper bound before it is
/// compared against the current k-th score. Exact per-term impacts are
/// doubles summed in descending-bound order during pruning but in query-term
/// order during final scoring; the two orders can round differently, so a
/// raw partial sum is not a strict bound of the canonical sum. Inflating by
/// 1 + 1e-12 (orders of magnitude above the worst-case reassociation error
/// of the few dozen terms a query has) restores "bound >= canonical score",
/// making pruning provably lossless while costing next to nothing in
/// selectivity.
constexpr double kBoundSlack = 1.0 + 1e-12;

/// log(tf) for every tf below kLogTfTableSize. Dynamic initialization on
/// purpose: each entry is computed by the run-time std::log from a volatile
/// input, never folded by the compiler (whose constant folding need not
/// round like the library does). No other translation unit scores during
/// static initialization, so the table is filled before its first use.
const std::array<double, kLogTfTableSize> kLogTfTable = [] {
  std::array<double, kLogTfTableSize> table{};
  volatile uint32_t opaque_zero = 0;
  for (uint32_t tf = 0; tf < kLogTfTableSize; ++tf) {
    table[tf] = std::log(static_cast<double>(tf + opaque_zero));
  }
  return table;
}();

/// Exact impact of the cursor's current posting, the same expression (and
/// the same double arithmetic) as MinervaEngine::TfIdfScore.
double OracleImpact(BlockPostingList::Cursor& cursor, double idf) {
  return (1.0 + std::log(static_cast<double>(cursor.freq()))) * idf;
}

/// OracleImpact with the log read through LogTf: the same double.
double Impact(BlockPostingList::Cursor& cursor, double idf) {
  return (1.0 + LogTf(cursor.freq())) * idf;
}

bool BetterPair(const std::pair<double, graph::PageId>& a,
                const std::pair<double, graph::PageId>& b) {
  return BetterResult(a.first, a.second, b.first, b.second);
}

/// BetterResult over TopKList entries (page, score).
bool BetterListed(const std::pair<graph::PageId, double>& a,
                  const std::pair<graph::PageId, double>& b) {
  return BetterResult(a.second, a.first, b.second, b.first);
}

TopKList FinishRanked(std::vector<std::pair<double, graph::PageId>> ranked, size_t k) {
  const size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<ptrdiff_t>(keep),
                    ranked.end(), BetterPair);
  TopKList out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) out.emplace_back(ranked[i].second, ranked[i].first);
  return out;
}

}  // namespace

double LogTf(uint32_t tf) {
  return tf < kLogTfTableSize ? kLogTfTable[tf] : std::log(static_cast<double>(tf));
}

TopKList ExhaustiveTopK(const CompressedPeerIndex& index,
                        std::span<const search::TermId> query, size_t k,
                        QueryStats* stats, StageNanos* stages) {
  JXP_CHECK_GT(k, 0u);
  QueryStats local;
  QueryStats* s = stats != nullptr ? stats : &local;
  const double w = index.prior_weight();
  // Profiling is strictly additive: clocks are read only when the caller
  // asked for a profile, and nothing downstream of a clock read influences
  // the evaluation (see StageNanos).
  const bool prof = stages != nullptr;
  uint64_t t0 = prof ? MonotonicNanos() : 0;

  // Term-at-a-time: the outer loop follows query-term order, so every
  // document's accumulator receives its contributions in exactly the order
  // MinervaEngine::TfIdfScore sums them — the accumulated doubles are
  // bit-identical.
  std::unordered_map<graph::PageId, double> tfidf;
  for (search::TermId term : query) {
    const CompressedPeerIndex::TermList* entry = index.ListFor(term);
    if (entry == nullptr) continue;
    BlockPostingList::Cursor cursor = entry->list.OpenCursor(&s->decode);
    for (cursor.Next(); cursor.docid() != BlockPostingList::kEndDocid; cursor.Next()) {
      tfidf[cursor.docid()] += OracleImpact(cursor, entry->idf);
    }
  }
  s->candidates_scored += tfidf.size();
  if (prof) {
    const uint64_t t1 = MonotonicNanos();
    stages->decode_ns += t1 - t0;
    t0 = t1;
  }

  std::vector<std::pair<double, graph::PageId>> ranked;
  ranked.reserve(tfidf.size());
  for (const auto& [page, text_score] : tfidf) {
    const double score =
        w == 0.0 ? text_score : (1.0 - w) * text_score + w * index.PriorOf(page);
    ranked.emplace_back(score, page);
  }
  if (prof) {
    const uint64_t t1 = MonotonicNanos();
    stages->scoring_ns += t1 - t0;
    t0 = t1;
  }

  TopKList out = FinishRanked(std::move(ranked), k);
  if (prof) stages->heap_ns += MonotonicNanos() - t0;
  return out;
}

void MaxScoreScratch::LiveRanges::Build(std::span<const ListCursor> lists, double w,
                                        double theta, double slack, QueryStats* s) {
  size_t cuts = 1;
  for (const ListCursor& lc : lists) cuts += lc.entry->list.num_blocks();
  start.clear();
  start.reserve(cuts);
  start.push_back(0);
  for (const ListCursor& lc : lists) {
    const BlockPostingList& list = lc.entry->list;
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      start.push_back(list.block_last_docid(b) + 1);
    }
  }
  std::sort(start.begin(), start.end());
  start.erase(std::unique(start.begin(), start.end()), start.end());
  live.assign(start.size(), 0);
  at = 0;
  active = true;

  block_of.assign(lists.size(), 0);
  for (size_t r = 0; r < start.size(); ++r) {
    const uint32_t first = start[r];
    double impact_sum = 0;
    double prior_max = 0;
    bool covered = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      const BlockPostingList& list = lists[i].entry->list;
      size_t& b = block_of[i];
      while (b < list.num_blocks() && list.block_last_docid(b) < first) ++b;
      if (b >= list.num_blocks()) continue;
      covered = true;
      impact_sum += static_cast<double>(list.block_max_impact(b));
      prior_max = std::max(prior_max, static_cast<double>(list.block_max_prior(b)));
    }
    // Identical bound discipline to the per-document pruning below: a dead
    // range's bound dominates the canonical fused score of every document
    // in it (fl-monotone sums, reassociation absorbed by the slack), so
    // skipping the range discards only documents the per-document check
    // would also have discarded.
    const double bound = slack * ((1.0 - w) * impact_sum + w * prior_max);
    live[r] = (covered && bound > theta) ? 1 : 0;
    if (live[r] != 0) {
      ++s->live_ranges;
    } else {
      ++s->dead_ranges;
    }
  }
}

TopKList MaxScoreTopK(const CompressedPeerIndex& index,
                      std::span<const search::TermId> query, size_t k,
                      QueryStats* stats) {
  return MaxScoreTopK(index, query, k, MaxScoreOptions{}, stats);
}

TopKList MaxScoreTopK(const CompressedPeerIndex& index,
                      std::span<const search::TermId> query, size_t k,
                      const MaxScoreOptions& options, QueryStats* stats,
                      StageNanos* stages) {
  MaxScoreScratch scratch;
  return MaxScoreTopK(index, query, k, options, scratch, stats, stages);
}

const TopKList& MaxScoreTopK(const CompressedPeerIndex& index,
                             std::span<const search::TermId> query, size_t k,
                             const MaxScoreOptions& options, MaxScoreScratch& scratch,
                             QueryStats* stats, StageNanos* stages) {
  using ListCursor = MaxScoreScratch::ListCursor;
  JXP_CHECK_GT(k, 0u);
  QueryStats local;
  QueryStats* s = stats != nullptr ? stats : &local;
  const double w = index.prior_weight();
  // Scoring and heap work are rare relative to cursor movement, so only
  // those two get their own clocks; decode falls out as the residual of the
  // whole run (see StageNanos). No clocks are read when stages == nullptr.
  const bool prof = stages != nullptr;
  const uint64_t run_t0 = prof ? MonotonicNanos() : 0;
  uint64_t scoring_acc = 0;
  uint64_t heap_acc = 0;

  // Min-heap under BetterResult: front is the current k-th (worst) result.
  TopKList& heap = scratch.results_;
  heap.clear();
  if (scratch.lists_.size() < query.size()) scratch.lists_.resize(query.size());
  size_t n = 0;
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const CompressedPeerIndex::TermList* entry = index.ListFor(query[qi]);
    if (entry == nullptr || entry->list.num_postings() == 0) continue;
    ListCursor& lc = scratch.lists_[n++];
    lc.query_pos = qi;
    lc.entry = entry;
    lc.cursor.Reset(&entry->list, &s->decode);
    lc.ub = static_cast<double>(entry->list.max_impact());
  }
  if (n == 0) return heap;
  const std::span<ListCursor> lists(scratch.lists_.data(), n);

  // MaxScore order: ascending upper bound, with a deterministic tie-break so
  // the traversal (and thus the decode counters) never depends on input
  // ordering quirks.
  std::sort(lists.begin(), lists.end(), [](const ListCursor& a, const ListCursor& b) {
    if (a.ub != b.ub) return a.ub < b.ub;
    if (a.entry->term != b.entry->term) return a.entry->term < b.entry->term;
    return a.query_pos < b.query_pos;
  });
  std::vector<double>& prefix_ub = scratch.prefix_ub_;
  prefix_ub.resize(n);
  double running = 0;
  for (size_t i = 0; i < n; ++i) {
    running += lists[i].ub;
    prefix_ub[i] = running;
  }
  const double prior_ub = w == 0.0 ? 0.0 : static_cast<double>(index.max_prior_bound());

  // Canonical-order view for the final rescore of surviving candidates.
  std::vector<ListCursor*>& by_query = scratch.by_query_;
  by_query.resize(n);
  for (size_t i = 0; i < n; ++i) by_query[i] = &lists[i];
  std::sort(by_query.begin(), by_query.end(),
            [](const ListCursor* a, const ListCursor* b) { return a->query_pos < b->query_pos; });

  for (ListCursor& lc : lists) lc.cursor.Next();

  heap.reserve(k);
  double theta = -std::numeric_limits<double>::infinity();
  // lists[0..essential) are non-essential: their combined upper bound cannot
  // beat theta, so no document found *only* there can enter the top-k.
  size_t essential = 0;
  const auto raise_essential = [&] {
    const size_t before = essential;
    while (essential < n &&
           kBoundSlack * ((1.0 - w) * prefix_ub[essential] + w * prior_ub) <= theta) {
      ++essential;
    }
    return essential != before;
  };

  // The range set is rebuilt when the threshold first materializes (priming
  // or first heap fill) and whenever a list leaves the essential set — at
  // most n + 2 builds, each a pure function of (index, query, k, options).
  MaxScoreScratch::LiveRanges& ranges = scratch.ranges_;
  ranges.active = false;
  const auto rebuild_live = [&] {
    if (options.live_blocks) ranges.Build(lists, w, theta, kBoundSlack, s);
  };

  if (options.primed_threshold > 0) {
    // The heap never narrows theta back below the primer (std::max below):
    // early survivors that score under the primer stay in the heap as
    // placeholders — everything above the primer is exact, which is all the
    // caller's merge consumes — but must not weaken pruning.
    theta = options.primed_threshold;
    raise_essential();
    rebuild_live();
  }

  while (essential < n) {
    // Candidate: smallest docid on any essential list.
    uint32_t d = BlockPostingList::kEndDocid;
    for (size_t i = essential; i < n; ++i) d = std::min(d, lists[i].cursor.docid());
    if (d == BlockPostingList::kEndDocid) break;

    if (ranges.active && !ranges.IsLive(d)) {
      // Dead range: every document in it is provably below theta. Jump all
      // essential cursors to the next live range; block skips caused by the
      // jump are reclassified from blocks_skipped (shallow per-document
      // skipping) into blocks_skipped_live so the two stay disjoint.
      const uint32_t next = ranges.NextLiveStart(d);
      const size_t skipped_before = s->decode.blocks_skipped;
      for (size_t i = essential; i < n; ++i) {
        if (lists[i].cursor.docid() < next) lists[i].cursor.NextGEQ(next);
      }
      const size_t moved = s->decode.blocks_skipped - skipped_before;
      s->decode.blocks_skipped -= moved;
      s->decode.blocks_skipped_live += moved;
      continue;
    }

    // Exact partial score from the essential lists. Each matching cursor
    // sits inside a decoded block that contains d, so that block's quantized
    // max_prior bounds this document's static prior — the per-block prior
    // quantization replacing a random access during pruning.
    double partial = 0;
    double prior_bound_d = prior_ub;
    for (size_t i = essential; i < n; ++i) {
      if (lists[i].cursor.docid() != d) continue;
      partial += Impact(lists[i].cursor, lists[i].entry->idf);
      if (w != 0.0) {
        float block_impact = 0;
        float block_prior = 0;
        if (lists[i].cursor.SeekBlock(d, &block_impact, &block_prior)) {
          prior_bound_d = std::min(prior_bound_d, static_cast<double>(block_prior));
        }
      }
    }

    // Descend through the non-essential lists, tightest budget first. Each
    // step first checks the list-level bound, then — via a shallow seek that
    // touches only block metadata — the block-level bound, and only decodes
    // when the document is still alive.
    bool pruned = false;
    for (size_t i = essential; i-- > 0;) {
      if (kBoundSlack * ((1.0 - w) * (partial + prefix_ub[i]) + w * prior_bound_d) <=
          theta) {
        pruned = true;
        break;
      }
      float block_impact = 0;
      float block_prior = 0;
      if (!lists[i].cursor.SeekBlock(d, &block_impact, &block_prior)) continue;
      const double head = i > 0 ? prefix_ub[i - 1] : 0.0;
      if (kBoundSlack * ((1.0 - w) *
                             (partial + head + static_cast<double>(block_impact)) +
                         w * prior_bound_d) <= theta) {
        pruned = true;
        break;
      }
      if (lists[i].cursor.NextGEQ(d) && lists[i].cursor.docid() == d) {
        partial += Impact(lists[i].cursor, lists[i].entry->idf);
      }
    }

    if (pruned) {
      ++s->docs_pruned;
    } else {
      uint64_t t0 = prof ? MonotonicNanos() : 0;
      // Survivor: every live cursor now sits at docid >= d (== d exactly
      // when the document contains the term), so re-aggregate in original
      // query-term order for the canonical, engine-identical double.
      double exact = 0;
      for (ListCursor* lc : by_query) {
        if (lc->cursor.docid() == d) exact += Impact(lc->cursor, lc->entry->idf);
      }
      const double score = w == 0.0 ? exact : (1.0 - w) * exact + w * index.PriorOf(d);
      ++s->candidates_scored;
      if (prof) {
        const uint64_t t1 = MonotonicNanos();
        scoring_acc += t1 - t0;
        t0 = t1;
      }
      if (heap.size() < k) {
        heap.emplace_back(d, score);
        std::push_heap(heap.begin(), heap.end(), BetterListed);
        if (heap.size() == k) {
          theta = std::max(theta, heap.front().second);
          raise_essential();
          rebuild_live();
        }
      } else if (BetterResult(score, d, heap.front().second, heap.front().first)) {
        std::pop_heap(heap.begin(), heap.end(), BetterListed);
        heap.back() = {d, score};
        std::push_heap(heap.begin(), heap.end(), BetterListed);
        theta = std::max(theta, heap.front().second);
        if (raise_essential()) rebuild_live();
      }
      if (prof) heap_acc += MonotonicNanos() - t0;
    }

    for (size_t i = essential; i < n; ++i) {
      if (lists[i].cursor.docid() == d) lists[i].cursor.Next();
    }
  }

  const uint64_t sort_t0 = prof ? MonotonicNanos() : 0;
  std::sort(heap.begin(), heap.end(), BetterListed);
  if (prof) {
    heap_acc += MonotonicNanos() - sort_t0;
    const uint64_t total = MonotonicNanos() - run_t0;
    const uint64_t accounted = scoring_acc + heap_acc;
    stages->scoring_ns += scoring_acc;
    stages->heap_ns += heap_acc;
    // Residual; guarded because each accumulated interval ends with its own
    // later clock read, so rounding can push accounted past total by a hair.
    stages->decode_ns += total > accounted ? total - accounted : 0;
  }
  return heap;
}

}  // namespace qp
}  // namespace jxp
