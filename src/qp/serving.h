#ifndef JXP_QP_SERVING_H_
#define JXP_QP_SERVING_H_

#include <atomic>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "obs/latency_recorder.h"
#include "obs/metrics.h"
#include "qp/query_processor.h"
#include "qp/result_cache.h"

namespace jxp {
namespace search {
class PeerIndex;
}  // namespace search

namespace qp {

/// Which per-peer top-k processor a QueryServer runs.
enum class ProcessorKind {
  /// Term-at-a-time over compressed lists, every posting decoded (oracle).
  kExhaustive,
  /// MaxScore with block-max skipping over compressed lists (fast path).
  kMaxScore,
};

/// Stable lowercase label for JSON output and metrics attributes.
const char* ProcessorName(ProcessorKind kind);

struct ServingOptions {
  ProcessorKind processor = ProcessorKind::kMaxScore;
  /// Results kept per query (after merging across peers).
  size_t k = 10;
  /// ParallelFor width for ServeBatch. Results and all non-timing metrics
  /// are bit-identical at any value, including 1.
  size_t num_threads = 1;
  /// Merged-result LRU capacity, keyed by the *exact* term sequence (scores
  /// are accumulated in query-term order, so permutations are distinct
  /// queries bit-wise). An exact hit short-circuits serving entirely. 0 (the
  /// default) disables the cache and preserves the uncached code path — and
  /// its metrics — exactly.
  size_t result_cache_capacity = 0;
  /// Query-threshold LRU capacity, keyed by the sorted term multiset. Stores
  /// the merged k-th score of fully-filled results; later queries prime the
  /// MaxScore heap from the exact key or any drop-one sub-multiset (scores
  /// are monotone in the query-term multiset), deflated so the primed
  /// threshold stays a strict lower bound. 0 disables the cache.
  size_t threshold_cache_capacity = 0;
  /// Term-level threshold priming (MaxScore only): AddPeer computes a safe
  /// per-term primer at freeze time (CompressedIndexOptions::primer_k) and
  /// queries start their heap from the best primer among their terms. Works
  /// with or without the caches; bit-identity is unconditional.
  bool threshold_priming = true;
  /// Emit one "qp.query" trace event per served query (query id, terms,
  /// cache_hit, postings decoded, per-stage nanoseconds) to the installed
  /// TraceSink. Off by default: per-query events are high-volume and would
  /// distort throughput benches. Like all telemetry, gated on
  /// JXP_OBS_ENABLED / obs::Enabled() and never affects results.
  bool trace_queries = false;
};

/// One query of a batch.
struct ServedQuery {
  std::vector<search::TermId> terms;
};

/// One query's outcome.
struct ServedResult {
  /// Top-k merged across all peers (replicas deduplicated by page), best
  /// first under BetterResult.
  TopKList results;
  /// Work counters aggregated over the peers.
  QueryStats stats;
  /// True when the result came from the result cache (or from an identical
  /// query earlier in the same batch) without running a processor; `stats`
  /// stays zero — a hit does no decode work, and the metrics report work
  /// actually performed.
  bool cache_hit = false;
};

/// A batched query-serving driver: holds every peer's frozen compressed
/// index and evaluates query streams across the deterministic thread pool.
/// Each query
/// runs its processor against every registered peer and merges the per-peer
/// top-k lists; queries are statically partitioned over workers, per-query
/// work is a pure function of (indexes, query, k), and work counters flow
/// into `jxp.qp.*` metrics through thread-local shards — so results and
/// non-timing metric snapshots are bit-identical at any thread count.
class QueryServer {
 public:
  /// `corpus` must outlive the server (AddPeer reads its df statistics).
  QueryServer(const search::Corpus* corpus, const ServingOptions& options);

  /// Registers one peer by freezing `index` into the compressed layout;
  /// `index` is read only during the call. When threshold_priming is on,
  /// primer_k = k is folded into `copts` before freezing and the per-term
  /// primer table is refreshed. Both caches are invalidated (results may
  /// change). Not concurrency-safe against ServeBatch.
  void AddPeer(const search::PeerIndex* index,
               const std::unordered_map<graph::PageId, double>& jxp_scores,
               const CompressedIndexOptions& copts);

  /// Serves `queries`, one ServedResult per query, in input order. Cache
  /// lookups, threshold priming, and cache insertion happen in two serial
  /// phases around the parallel evaluation of the distinct misses, so
  /// results, cache contents, and every non-timing metric are a pure
  /// function of the query sequence — independent of thread count.
  std::vector<ServedResult> ServeBatch(std::span<const ServedQuery> queries);

  /// Serves one query on the calling thread, safe to run concurrently with
  /// other ServeConcurrent calls (NOT with ServeBatch or AddPeer). Bypasses
  /// both LRU caches — their recency updates are single-writer — and primes
  /// only from the immutable per-term primer table, so results match a
  /// cache-less server bit for bit. Stage latencies go to `recorder` when
  /// non-null (pass a per-worker recorder and MergeFrom afterwards for
  /// contention-free recording). This is the open-loop load harness' entry
  /// point (bench/sustained_load.cc).
  void ServeConcurrent(const ServedQuery& query, ServedResult& out,
                       obs::LatencyRecorder* recorder = nullptr);

  /// Installs the stage-latency sink ServeBatch records into (nullptr =
  /// none, the default — no clocks are read). Borrowed; must outlive the
  /// server or be reset. Latencies are diagnostics only: results and
  /// non-timing metrics are bit-identical with or without a recorder.
  void SetLatencyRecorder(obs::LatencyRecorder* recorder) {
    latency_recorder_ = recorder;
  }

  size_t num_peers() const { return compressed_.size(); }
  const CompressedPeerIndex& compressed(size_t i) const { return compressed_[i]; }
  /// Compressed-size stats aggregated over every frozen peer.
  const CompressedIndexStats& index_stats() const { return index_stats_; }
  const ServingOptions& options() const { return options_; }

 private:
  /// What the result cache stores per exact term sequence: only the merged
  /// list — work counters are not replayed on a hit.
  struct CachedResult {
    TopKList results;
  };

  /// `query_id` is the query's serial position in the server's lifetime
  /// stream (assigned in ServeBatch phase 1 / ServeConcurrent issue order);
  /// it only labels trace events. `cache_lookup_ns` / `priming_ns` were
  /// measured by the caller's serial phase and are recorded/emitted here so
  /// each query's stage profile lands in one place. `recorder` receives one
  /// sample per stage when non-null.
  void ServeOne(const ServedQuery& query, double primed_threshold, uint64_t query_id,
                uint64_t cache_lookup_ns, uint64_t priming_ns,
                obs::LatencyRecorder* recorder, ServedResult& out);
  /// Strict lower bound of the query's merged k-th score from term primers
  /// and the threshold cache (deflated), or 0 when nothing can prime.
  /// Mutates threshold-cache recency — call only from a serial phase.
  double PrimedThreshold(const std::vector<search::TermId>& terms);

  const search::Corpus* corpus_;
  ServingOptions options_;
  std::vector<CompressedPeerIndex> compressed_;
  CompressedIndexStats index_stats_;
  std::unique_ptr<ThreadPool> pool_;

  /// Stage-latency sink for ServeBatch (see SetLatencyRecorder).
  obs::LatencyRecorder* latency_recorder_ = nullptr;
  /// Lifetime query counter, the source of trace-event query ids. Atomic
  /// only for ServeConcurrent; ServeBatch claims ids serially in phase 1.
  std::atomic<uint64_t> queries_served_{0};

  /// Best (max) freeze-time threshold primer of each term across peers.
  std::unordered_map<search::TermId, double> term_primers_;
  DeterministicLru<std::vector<search::TermId>, CachedResult, TermSequenceHash>
      result_cache_;
  DeterministicLru<std::vector<search::TermId>, double, TermSequenceHash>
      threshold_cache_;

  obs::Counter queries_total_;
  obs::Counter postings_decoded_;
  obs::Counter freqs_decoded_;
  obs::Counter blocks_decoded_;
  obs::Counter blocks_skipped_;
  obs::Counter blocks_skipped_live_;
  obs::Counter candidates_scored_;
  obs::Counter docs_pruned_;
  obs::Counter live_ranges_;
  obs::Counter dead_ranges_;
  obs::Counter result_cache_hits_;
  obs::Counter result_cache_misses_;
  obs::Counter primed_queries_;
  obs::Histogram postings_decoded_per_query_;
  obs::Histogram results_per_query_;
  obs::Histogram query_latency_ms_;
};

}  // namespace qp
}  // namespace jxp

#endif  // JXP_QP_SERVING_H_
