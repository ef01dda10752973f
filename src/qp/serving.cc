#include "qp/serving.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/trace.h"

namespace jxp {
namespace qp {

namespace {

/// Fixed ParallelFor grain: block boundaries must not depend on the thread
/// count, or per-worker metric shards would partition differently (still
/// deterministic after merging, but keep scheduling canonical anyway).
constexpr size_t kServeGrain = 1;

/// Every primed threshold is multiplied by this before it reaches the
/// MaxScore heap. Term primers and cached thresholds are lower bounds of the
/// true merged k-th score in exact arithmetic; the deflation absorbs the
/// floating-point reassociation slack between the term order the bound was
/// derived under and the order the query actually sums in (~n*eps, orders of
/// magnitude below 1e-12) AND makes the bound strict, so a primed run can
/// never prune a document that ties the true k-th score.
constexpr double kPrimeDeflate = 1.0 - 1e-12;

constexpr size_t kNotDup = static_cast<size_t>(-1);

/// One "qp.query" trace line. All *_ns fields are wall nanoseconds of this
/// query; stage semantics follow obs::LatencyStage. Emitted from pool
/// workers (misses) and the serial phase 3 (cache hits) alike — the sink is
/// thread-safe, and line order is scheduling-dependent like every trace.
void EmitQueryEvent(uint64_t query_id, const std::vector<search::TermId>& terms,
                    bool cache_hit, size_t postings_decoded, uint64_t cache_lookup_ns,
                    uint64_t priming_ns, const StageNanos& stages, uint64_t fan_in_ns,
                    uint64_t total_ns) {
  obs::EmitEvent("qp.query", [&](obs::JsonWriter& w) {
    w.Field("query_id", query_id);
    w.BeginArray("terms");
    for (search::TermId term : terms) w.Element(static_cast<double>(term));
    w.End();
    w.Field("cache_hit", cache_hit);
    w.Field("postings_decoded", static_cast<uint64_t>(postings_decoded));
    w.Field("cache_lookup_ns", cache_lookup_ns);
    w.Field("priming_ns", priming_ns);
    w.Field("decode_ns", stages.decode_ns);
    w.Field("scoring_ns", stages.scoring_ns);
    w.Field("heap_ns", stages.heap_ns);
    w.Field("fan_in_ns", fan_in_ns);
    w.Field("total_ns", total_ns);
  });
}

}  // namespace

const char* ProcessorName(ProcessorKind kind) {
  switch (kind) {
    case ProcessorKind::kExhaustive:
      return "exhaustive";
    case ProcessorKind::kMaxScore:
      return "maxscore";
  }
  return "unknown";
}

QueryServer::QueryServer(const search::Corpus* corpus, const ServingOptions& options)
    : corpus_(corpus),
      options_(options),
      result_cache_(options.result_cache_capacity),
      threshold_cache_(options.threshold_cache_capacity) {
  JXP_CHECK(corpus_ != nullptr);
  JXP_CHECK_GT(options_.k, 0u);
  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(options_.num_threads, 1));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  queries_total_ = registry.GetCounter("jxp.qp.queries");
  postings_decoded_ = registry.GetCounter("jxp.qp.postings_decoded");
  freqs_decoded_ = registry.GetCounter("jxp.qp.freqs_decoded");
  blocks_decoded_ = registry.GetCounter("jxp.qp.blocks_decoded");
  blocks_skipped_ = registry.GetCounter("jxp.qp.blocks_skipped");
  blocks_skipped_live_ = registry.GetCounter("jxp.qp.blocks_skipped_live");
  candidates_scored_ = registry.GetCounter("jxp.qp.candidates_scored");
  docs_pruned_ = registry.GetCounter("jxp.qp.docs_pruned");
  live_ranges_ = registry.GetCounter("jxp.qp.live_ranges");
  dead_ranges_ = registry.GetCounter("jxp.qp.dead_ranges");
  result_cache_hits_ = registry.GetCounter("jxp.qp.result_cache_hits");
  result_cache_misses_ = registry.GetCounter("jxp.qp.result_cache_misses");
  primed_queries_ = registry.GetCounter("jxp.qp.primed_queries");
  postings_decoded_per_query_ = registry.GetHistogram("jxp.qp.postings_decoded_per_query");
  results_per_query_ = registry.GetHistogram("jxp.qp.results_per_query");
  query_latency_ms_ = registry.GetHistogram("jxp.qp.query_latency_ms");
}

void QueryServer::AddPeer(const search::PeerIndex* index,
                          const std::unordered_map<graph::PageId, double>& jxp_scores,
                          const CompressedIndexOptions& copts) {
  JXP_CHECK(index != nullptr);
  CompressedIndexOptions opts = copts;
  if (options_.threshold_priming) opts.primer_k = options_.k;
  compressed_.push_back(CompressedPeerIndex::Freeze(*index, *corpus_, jxp_scores, opts));
  index_stats_.MergeFrom(compressed_.back().stats());
  // A per-peer primer stays a valid merged-score bound globally: the merged
  // k-th score dominates every peer's k-th score, which dominates that
  // peer's primer. Take the best across peers per term.
  for (const CompressedPeerIndex::TermList& entry : compressed_.back().lists()) {
    if (entry.primer > 0.0) {
      double& primer = term_primers_[entry.term];
      primer = std::max(primer, entry.primer);
    }
  }
  // New postings change merged results and thresholds alike.
  result_cache_.Clear();
  threshold_cache_.Clear();
}

double QueryServer::PrimedThreshold(const std::vector<search::TermId>& terms) {
  if (options_.processor != ProcessorKind::kMaxScore || terms.empty()) return 0.0;
  double theta = 0.0;
  if (options_.threshold_priming) {
    for (search::TermId term : terms) {
      const auto it = term_primers_.find(term);
      if (it != term_primers_.end()) theta = std::max(theta, it->second);
    }
  }
  if (threshold_cache_.capacity() > 0) {
    // Scores are monotone in the query-term multiset (every impact is
    // nonnegative), so the threshold of the exact sorted multiset or of any
    // drop-one sub-multiset bounds this query's k-th score from below.
    std::vector<search::TermId> key = terms;
    std::sort(key.begin(), key.end());
    if (const double* cached = threshold_cache_.Get(key)) {
      theta = std::max(theta, *cached);
    }
    if (key.size() >= 2) {
      std::vector<search::TermId> sub(key.size() - 1);
      for (size_t drop = 0; drop < key.size(); ++drop) {
        // Dropping either of two equal terms yields the same sub-multiset.
        if (drop > 0 && key[drop] == key[drop - 1]) continue;
        size_t out = 0;
        for (size_t j = 0; j < key.size(); ++j) {
          if (j != drop) sub[out++] = key[j];
        }
        if (const double* cached = threshold_cache_.Get(sub)) {
          theta = std::max(theta, *cached);
        }
      }
    }
  }
  return theta > 0.0 ? theta * kPrimeDeflate : 0.0;
}

void QueryServer::ServeOne(const ServedQuery& query, double primed_threshold,
                           uint64_t query_id, uint64_t cache_lookup_ns,
                           uint64_t priming_ns, obs::LatencyRecorder* recorder,
                           ServedResult& out) {
  WallTimer timer;
  const bool trace = options_.trace_queries && obs::Enabled();
  const bool prof = obs::Enabled() && (recorder != nullptr || trace);
  StageNanos stages;
  StageNanos* sp = prof ? &stages : nullptr;
  uint64_t fan_in_ns = 0;
  const uint64_t total_t0 = prof ? MonotonicNanos() : 0;

  // Per-peer top-k, merged with replica deduplication: a page hosted by
  // several peers scores bit-identically on each (the score is a pure
  // function of corpus statistics, the query, and the prior table), so any
  // copy stands for all of them — the same dedup MinervaEngine applies.
  // Each entry is keyed (page << 32 | arrival): sorting the keys groups a
  // page's copies in peer order, and the last copy, the last peer's, wins.
  MaxScoreScratch scratch;
  std::vector<std::pair<uint64_t, double>> merged;
  merged.reserve(compressed_.size() * options_.k);
  TopKList exhaustive;
  for (size_t p = 0; p < compressed_.size(); ++p) {
    const TopKList* local = &exhaustive;
    switch (options_.processor) {
      case ProcessorKind::kExhaustive:
        exhaustive =
            ExhaustiveTopK(compressed_[p], query.terms, options_.k, &out.stats, sp);
        break;
      case ProcessorKind::kMaxScore: {
        MaxScoreOptions mopts;
        // The same primed threshold is valid against every peer: it lower-
        // bounds the *merged* k-th score, and per-peer entries below it can
        // never reach the merged top-k.
        mopts.primed_threshold = primed_threshold;
        local = &MaxScoreTopK(compressed_[p], query.terms, options_.k, mopts, scratch,
                              &out.stats, sp);
        break;
      }
    }
    const uint64_t merge_t0 = prof ? MonotonicNanos() : 0;
    for (const auto& [page, score] : *local) {
      merged.emplace_back(uint64_t{page} << 32 | merged.size(), score);
    }
    if (prof) fan_in_ns += MonotonicNanos() - merge_t0;
  }
  const uint64_t rank_t0 = prof ? MonotonicNanos() : 0;
  const auto page_of = [](const std::pair<uint64_t, double>& e) {
    return static_cast<graph::PageId>(e.first >> 32);
  };
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t distinct = 0;
  for (size_t i = 0; i < merged.size(); ++i) {
    if (i + 1 < merged.size() && page_of(merged[i + 1]) == page_of(merged[i])) continue;
    merged[distinct++] = merged[i];
  }
  merged.resize(distinct);
  const size_t keep = std::min(options_.k, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + static_cast<ptrdiff_t>(keep),
                    merged.end(), [&](const auto& a, const auto& b) {
                      return BetterResult(a.second, page_of(a), b.second, page_of(b));
                    });
  out.results.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    out.results.emplace_back(page_of(merged[i]), merged[i].second);
  }
  if (prof) fan_in_ns += MonotonicNanos() - rank_t0;

  queries_total_.Increment();
  postings_decoded_.Increment(out.stats.decode.postings_decoded);
  freqs_decoded_.Increment(out.stats.decode.freqs_decoded);
  blocks_decoded_.Increment(out.stats.decode.blocks_decoded);
  blocks_skipped_.Increment(out.stats.decode.blocks_skipped);
  blocks_skipped_live_.Increment(out.stats.decode.blocks_skipped_live);
  candidates_scored_.Increment(out.stats.candidates_scored);
  docs_pruned_.Increment(out.stats.docs_pruned);
  live_ranges_.Increment(out.stats.live_ranges);
  dead_ranges_.Increment(out.stats.dead_ranges);
  if (primed_threshold > 0.0) primed_queries_.Increment();
  postings_decoded_per_query_.Observe(
      static_cast<double>(out.stats.decode.postings_decoded));
  results_per_query_.Observe(static_cast<double>(out.results.size()));
  query_latency_ms_.Observe(timer.ElapsedMillis());

  if (prof) {
    // Total covers the stages plus glue (cursor setup, metric flushes);
    // cache lookup and priming happened in the caller's serial phase and are
    // reported alongside, not inside, the total.
    const uint64_t total_ns = MonotonicNanos() - total_t0;
    if (recorder != nullptr) {
      recorder->Record(obs::LatencyStage::kCacheLookup, cache_lookup_ns);
      recorder->Record(obs::LatencyStage::kPriming, priming_ns);
      recorder->Record(obs::LatencyStage::kDecode, stages.decode_ns);
      recorder->Record(obs::LatencyStage::kScoring, stages.scoring_ns);
      recorder->Record(obs::LatencyStage::kHeap, stages.heap_ns);
      recorder->Record(obs::LatencyStage::kFanIn, fan_in_ns);
      recorder->Record(obs::LatencyStage::kTotal, total_ns);
    }
    if (trace) {
      EmitQueryEvent(query_id, query.terms, /*cache_hit=*/false,
                     out.stats.decode.postings_decoded, cache_lookup_ns, priming_ns,
                     stages, fan_in_ns, total_ns);
    }
  }
}

std::vector<ServedResult> QueryServer::ServeBatch(std::span<const ServedQuery> queries) {
  obs::TraceSpan span("qp.serve_batch");
  if (span.active()) {
    span.AddAttr("processor", ProcessorName(options_.processor));
    span.AddAttr("num_queries", queries.size());
    span.AddAttr("num_peers", compressed_.size());
    span.AddAttr("threads", pool_->num_threads());
    span.AddAttr("k", options_.k);
  }
  std::vector<ServedResult> results(queries.size());
  const bool use_result_cache = result_cache_.capacity() > 0;
  const bool trace = options_.trace_queries && obs::Enabled();
  const bool prof = obs::Enabled() && (latency_recorder_ != nullptr || trace);
  // Query ids label trace events with the query's position in the server's
  // lifetime stream; claimed up front so phase 2 needs no synchronization.
  const uint64_t id_base =
      queries_served_.fetch_add(queries.size(), std::memory_order_relaxed);

  // Phase 1 (serial): result-cache lookups, in-batch dedup by exact term
  // sequence, and threshold priming. Everything that touches cache recency
  // happens here in query order, so cache state — and with it every primed
  // threshold and work counter — is a pure function of the query sequence.
  // When profiling, the phase also clocks each query's lookup and priming;
  // the samples ride into ServeOne (misses) or phase 3 (hits).
  std::vector<size_t> misses;
  std::vector<double> primed(queries.size(), 0.0);
  std::vector<size_t> dup_of(queries.size(), kNotDup);
  std::vector<uint64_t> lookup_ns;
  std::vector<uint64_t> prime_ns;
  if (prof) {
    lookup_ns.assign(queries.size(), 0);
    prime_ns.assign(queries.size(), 0);
  }
  std::unordered_map<std::vector<search::TermId>, size_t, TermSequenceHash> first_of;
  for (size_t i = 0; i < queries.size(); ++i) {
    uint64_t t0 = prof ? MonotonicNanos() : 0;
    if (use_result_cache) {
      if (const CachedResult* hit = result_cache_.Get(queries[i].terms)) {
        results[i].results = hit->results;
        results[i].cache_hit = true;
        if (prof) lookup_ns[i] = MonotonicNanos() - t0;
        continue;
      }
      const auto [it, inserted] = first_of.try_emplace(queries[i].terms, i);
      if (!inserted) {
        dup_of[i] = it->second;
        if (prof) lookup_ns[i] = MonotonicNanos() - t0;
        continue;
      }
      result_cache_misses_.Increment();
    }
    if (prof) {
      const uint64_t t1 = MonotonicNanos();
      lookup_ns[i] = t1 - t0;
      t0 = t1;
    }
    primed[i] = PrimedThreshold(queries[i].terms);
    if (prof) prime_ns[i] = MonotonicNanos() - t0;
    misses.push_back(i);
  }

  // Phase 2 (parallel): evaluate the distinct misses. With caching off this
  // is the exact PR 4 loop over all queries.
  pool_->ParallelFor(0, misses.size(), kServeGrain, [&](size_t j) {
    const size_t i = misses[j];
    ServeOne(queries[i], primed[i], id_base + i, prof ? lookup_ns[i] : 0,
             prof ? prime_ns[i] : 0, latency_recorder_, results[i]);
  });

  // Phase 3 (serial, query order): fan results out to in-batch duplicates,
  // record hit metrics and hit latency profiles, and admit new entries into
  // both caches.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (dup_of[i] != kNotDup) {
      results[i].results = results[dup_of[i]].results;
      results[i].cache_hit = true;
    }
    if (results[i].cache_hit) {
      queries_total_.Increment();
      result_cache_hits_.Increment();
      results_per_query_.Observe(static_cast<double>(results[i].results.size()));
      if (prof) {
        // A hit's whole service is the cache probe; the decode/scoring/heap
        // stages record no sample (no work happened), keeping stage counts
        // equal to the number of queries that actually ran that stage.
        if (latency_recorder_ != nullptr) {
          latency_recorder_->Record(obs::LatencyStage::kCacheLookup, lookup_ns[i]);
          latency_recorder_->Record(obs::LatencyStage::kTotal, lookup_ns[i]);
        }
        if (trace) {
          EmitQueryEvent(id_base + i, queries[i].terms, /*cache_hit=*/true,
                         /*postings_decoded=*/0, lookup_ns[i], /*priming_ns=*/0,
                         StageNanos{}, /*fan_in_ns=*/0, /*total_ns=*/lookup_ns[i]);
        }
      }
      continue;
    }
    if (use_result_cache) {
      result_cache_.Put(queries[i].terms, CachedResult{results[i].results});
    }
    if (threshold_cache_.capacity() > 0 && results[i].results.size() == options_.k) {
      // The k-th (worst) merged score of a *full* result list is the exact
      // threshold of this term multiset; partial lists have no k-th score.
      std::vector<search::TermId> key = queries[i].terms;
      std::sort(key.begin(), key.end());
      threshold_cache_.Put(std::move(key), results[i].results.back().second);
    }
  }
  return results;
}

void QueryServer::ServeConcurrent(const ServedQuery& query, ServedResult& out,
                                  obs::LatencyRecorder* recorder) {
  const bool trace = options_.trace_queries && obs::Enabled();
  const bool prof = obs::Enabled() && (recorder != nullptr || trace);
  const uint64_t query_id =
      queries_served_.fetch_add(1, std::memory_order_relaxed);

  // Priming uses only the immutable per-term primer table — never the
  // threshold cache, whose recency list is single-writer. The primer is
  // deflated exactly like PrimedThreshold's, so results match a server with
  // both caches disabled bit for bit.
  const uint64_t prime_t0 = prof ? MonotonicNanos() : 0;
  double theta = 0.0;
  if (options_.processor == ProcessorKind::kMaxScore && options_.threshold_priming) {
    for (search::TermId term : query.terms) {
      const auto it = term_primers_.find(term);
      if (it != term_primers_.end()) theta = std::max(theta, it->second);
    }
  }
  const double primed = theta > 0.0 ? theta * kPrimeDeflate : 0.0;
  const uint64_t prime_ns = prof ? MonotonicNanos() - prime_t0 : 0;

  ServeOne(query, primed, query_id, /*cache_lookup_ns=*/0, prime_ns, recorder, out);
}

}  // namespace qp
}  // namespace jxp
