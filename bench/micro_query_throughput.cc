// Query-serving throughput over the compressed index: queries/second,
// postings decoded, and compressed bytes per posting in the Section 6.3
// Minerva peer layout, for the exhaustive and MaxScore processors at
// 1/2/4/8 worker threads. One JSON line per sweep point.
//
// Two ranking sweeps — pure tf*idf (prior weight 0) and the paper's fused
// ranking 0.6*tf*idf + 0.4*authority — crossed with three serving arms
// (exhaustive, MaxScore, and MaxScore with the serving-tier caches plus
// threshold priming) and two query traces:
//
//   cold  the distinct query pool served once against a fresh server —
//         every query misses, so this isolates the live-block pruning and
//         term-primer wins;
//   zipf  --queries draws from the pool under a Zipf(--zipf_s) popularity
//         law, served against the now-warm server — the repeated-query
//         mix the result and threshold caches exist for.
//
// Results are bit-identical across every arm, trace, and thread count —
// only the timings change — and the bench aborts if any arm disagrees
// with the exhaustive oracle, if MaxScore fails to decode strictly fewer
// postings than exhaustive, if live-block pruning never skips a block on
// the primed cold trace, or if the warm Zipfian trace never hits a cache.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "pagerank/pagerank.h"
#include "qp/serving.h"

namespace jxp {
namespace bench {

namespace {

/// Blocks small enough that typical per-peer posting lists span several of
/// them: the Section 6.3 layout shards the collection over ~40 peers, so
/// per-peer lists run tens-to-hundreds of postings and need fine blocks
/// before block-max and live-block skipping can engage at all (with the
/// default 128-entry blocks a peer fits whole lists into one block). The
/// extra per-block metadata this buys is visible in bytes_per_posting —
/// the skipping-vs-size trade the JSONL lines expose.
constexpr size_t kBenchBlockSize = 16;

/// One serving configuration of the arm matrix.
struct Arm {
  qp::ProcessorKind processor;
  /// Enables the result cache, the threshold cache, and term-level
  /// threshold priming — the full serving tier. Off reproduces the plain
  /// processor (the PR-comparable baseline arm).
  bool cached;
};

/// Per-serve work totals, summed over the batch from the deterministic
/// QueryStats counters (thread-count invariant by construction).
struct ServeTotals {
  size_t postings_decoded = 0;
  size_t freqs_decoded = 0;
  size_t blocks_decoded = 0;
  size_t blocks_skipped = 0;
  size_t blocks_skipped_live = 0;
  size_t live_ranges = 0;
  size_t dead_ranges = 0;
  size_t candidates_scored = 0;
  size_t docs_pruned = 0;
  size_t cache_hits = 0;
};

ServeTotals Accumulate(const std::vector<qp::ServedResult>& results) {
  ServeTotals t;
  for (const qp::ServedResult& result : results) {
    t.postings_decoded += result.stats.decode.postings_decoded;
    t.freqs_decoded += result.stats.decode.freqs_decoded;
    t.blocks_decoded += result.stats.decode.blocks_decoded;
    t.blocks_skipped += result.stats.decode.blocks_skipped;
    t.blocks_skipped_live += result.stats.decode.blocks_skipped_live;
    t.live_ranges += result.stats.live_ranges;
    t.dead_ranges += result.stats.dead_ranges;
    t.candidates_scored += result.stats.candidates_scored;
    t.docs_pruned += result.stats.docs_pruned;
    if (result.cache_hit) ++t.cache_hits;
  }
  return t;
}

/// Full-decode microbenchmark of one frozen server: walks every posting of
/// every list (docids and frequencies) through the cursor and reports
/// nanoseconds per posting — the per-stage decode cost of the block codec,
/// independent of query mix and pruning.
double DecodeNsPerPosting(const qp::QueryServer& server) {
  size_t postings = 0;
  uint64_t checksum = 0;
  WallTimer wall;
  for (size_t peer = 0; peer < server.num_peers(); ++peer) {
    for (const auto& term_list : server.compressed(peer).lists()) {
      auto cursor = term_list.list.OpenCursor(nullptr);
      for (cursor.Next(); cursor.docid() != qp::BlockPostingList::kEndDocid;
           cursor.Next()) {
        checksum += cursor.docid() + cursor.freq();
      }
      postings += term_list.list.num_postings();
    }
  }
  const double nanos = wall.ElapsedSeconds() * 1e9;
  JXP_CHECK(postings == 0 || checksum > 0);  // keep the decode loop live
  return postings > 0 ? nanos / static_cast<double>(postings) : 0.0;
}

/// Draws `draws` pool indices under a Zipf(s) law over `pool_size` ranks
/// (rank 0 most popular). Deterministic in `rng`.
std::vector<size_t> SampleZipfTrace(size_t pool_size, size_t draws, double s,
                                    Random& rng) {
  std::vector<double> cdf(pool_size);
  double total = 0;
  for (size_t i = 0; i < pool_size; ++i) {
    total += std::pow(static_cast<double>(i + 1), -s);
    cdf[i] = total;
  }
  std::vector<size_t> picks;
  picks.reserve(draws);
  for (size_t i = 0; i < draws; ++i) {
    const double u = rng.NextDouble() * total;
    const size_t pick = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    picks.push_back(std::min(pick, pool_size - 1));
  }
  return picks;
}

void CheckBitIdentical(const qp::TopKList& oracle, const qp::TopKList& got,
                       const char* context, size_t query) {
  JXP_CHECK_EQ(oracle.size(), got.size())
      << context << ": query " << query << " result count diverged";
  for (size_t i = 0; i < oracle.size(); ++i) {
    JXP_CHECK(oracle[i].first == got[i].first && oracle[i].second == got[i].second)
        << context << ": query " << query << " rank " << i
        << " diverged from the exhaustive oracle";
  }
}

}  // namespace

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("webcrawl", config);
  PrintHeader("micro: query-serving throughput over the compressed index",
              collection, config);

  // Section 6.3 peer layout: 4 fragments per category, each peer hosting 3.
  Random rng(config.seed);
  const auto fragments = crawler::FragmentSplitPartition(collection.data, 4, 3, rng);
  const search::Corpus corpus = search::Corpus::Generate(
      collection.data, search::CorpusOptions(), config.seed ^ 0xc0de);
  std::vector<std::unique_ptr<search::PeerIndex>> indexes;
  for (size_t p = 0; p < fragments.size(); ++p) {
    auto index = std::make_unique<search::PeerIndex>(static_cast<p2p::PeerId>(p));
    for (graph::PageId page : fragments[p]) index->AddDocument(corpus.DocumentFor(page));
    indexes.push_back(std::move(index));
  }

  // Static authority prior: exact PageRank stands in for a converged JXP
  // estimate (the serving path treats either as an opaque per-page prior).
  const auto truth =
      pagerank::ComputePageRank(collection.data.graph, pagerank::PageRankOptions());
  std::unordered_map<graph::PageId, double> prior;
  for (graph::PageId p = 0; p < collection.data.graph.NumNodes(); ++p) {
    prior[p] = truth.scores[p];
  }

  // The distinct query pool — lengths 1..3 so the trace mixes selective
  // single-term queries (where live-block pruning bites hardest) with the
  // multi-term queries of the earlier benches — and the two traces over it.
  std::vector<qp::ServedQuery> pool;
  Random qrng(config.seed + 1);
  for (size_t i = 0; i < config.queries; ++i) {
    qp::ServedQuery query;
    query.terms = corpus.SampleQueryTerms(
        static_cast<graph::CategoryId>(i % collection.data.num_categories),
        1 + i % 3, qrng);
    pool.push_back(std::move(query));
  }
  Random zrng(config.seed + 2);
  const std::vector<size_t> zipf_picks =
      SampleZipfTrace(pool.size(), config.queries, config.zipf_s, zrng);
  std::vector<qp::ServedQuery> zipf_trace;
  zipf_trace.reserve(zipf_picks.size());
  for (const size_t pick : zipf_picks) zipf_trace.push_back(pool[pick]);

  std::printf(
      "sweep\tprocessor\tcached\ttrace\tthreads\tqps\tpostings_decoded\t"
      "blocks_skipped_live\tcache_hit_rate\tbytes_per_posting\n");
  struct Sweep {
    const char* name;
    double prior_weight;
  };
  for (const Sweep sweep : {Sweep{"tfidf", 0.0}, Sweep{"fused", 0.4}}) {
    // Cold-trace oracle results and per-arm decode totals for the per-sweep
    // self-checks below (thread-count invariant by construction).
    std::vector<qp::TopKList> oracle_cold;
    size_t exhaustive_cold_postings = 0;
    size_t maxscore_cold_postings = 0;
    size_t primed_cold_postings = 0;
    size_t primed_cold_skipped_live = 0;
    size_t zipf_cache_hits = 0;

    const Arm arms[] = {
        {qp::ProcessorKind::kExhaustive, false},
        {qp::ProcessorKind::kMaxScore, false},
        {qp::ProcessorKind::kMaxScore, true},
    };
    for (const Arm& arm : arms) {
      // Measured once per arm (thread-count independent).
      double decode_ns_per_posting = 0;
      for (const size_t threads : {1u, 2u, 4u, 8u}) {
        qp::ServingOptions options;
        options.processor = arm.processor;
        options.k = 10;
        options.num_threads = threads;
        options.threshold_priming = arm.cached;
        if (arm.cached) {
          options.result_cache_capacity = pool.size();
          options.threshold_cache_capacity = pool.size();
        }
        qp::QueryServer server(&corpus, options);
        qp::CompressedIndexOptions copts;
        copts.block_size = kBenchBlockSize;
        copts.prior_weight = sweep.prior_weight;
        for (const auto& index : indexes) {
          server.AddPeer(index.get(),
                         sweep.prior_weight == 0.0
                             ? std::unordered_map<graph::PageId, double>{}
                             : prior,
                         copts);
        }
        if (threads == 1) decode_ns_per_posting = DecodeNsPerPosting(server);

        // Trace 1: the whole distinct pool against the fresh server (all
        // cold). Trace 2 (MaxScore arms): the Zipfian repeat mix against
        // the same — now cache-warm — server.
        struct TracedServe {
          const char* trace;
          std::vector<qp::ServedResult> results;
          double wall_seconds = 0;
        };
        std::vector<TracedServe> serves;
        {
          TracedServe cold{"cold", {}, 0};
          WallTimer wall;
          cold.results = server.ServeBatch(pool);
          cold.wall_seconds = wall.ElapsedSeconds();
          serves.push_back(std::move(cold));
        }
        if (arm.processor == qp::ProcessorKind::kMaxScore) {
          TracedServe zipf{"zipf", {}, 0};
          WallTimer wall;
          zipf.results = server.ServeBatch(zipf_trace);
          zipf.wall_seconds = wall.ElapsedSeconds();
          serves.push_back(std::move(zipf));
        }

        for (const TracedServe& serve : serves) {
          const bool is_cold = serve.results.size() == pool.size() &&
                               std::string_view(serve.trace) == "cold";
          const ServeTotals totals = Accumulate(serve.results);
          const double qps = serve.wall_seconds > 0
                                 ? static_cast<double>(serve.results.size()) /
                                       serve.wall_seconds
                                 : 0.0;
          const double hit_rate =
              serve.results.empty()
                  ? 0.0
                  : static_cast<double>(totals.cache_hits) /
                        static_cast<double>(serve.results.size());
          const double bytes_per_posting =
              server.index_stats().CompressedBytesPerPosting();
          const auto fill = [&](obs::JsonWriter& writer) {
            writer.Field("bench", "query_throughput")
                .Field("sweep", sweep.name)
                .Field("processor", qp::ProcessorName(arm.processor))
                .Field("cached", arm.cached)
                .Field("trace", serve.trace)
                .Field("zipf_s", config.zipf_s)
                .Field("threads", threads)
                .Field("queries", serve.results.size())
                .Field("k", options.k)
                .Field("peers", indexes.size())
                .Field("wall_seconds", serve.wall_seconds)
                .Field("qps", qps)
                .Field("decode_ns_per_posting", decode_ns_per_posting)
                .Field("postings_decoded", totals.postings_decoded)
                .Field("freqs_decoded", totals.freqs_decoded)
                .Field("blocks_decoded", totals.blocks_decoded)
                .Field("blocks_skipped", totals.blocks_skipped)
                .Field("blocks_skipped_live", totals.blocks_skipped_live)
                .Field("live_ranges", totals.live_ranges)
                .Field("dead_ranges", totals.dead_ranges)
                .Field("candidates_scored", totals.candidates_scored)
                .Field("docs_pruned", totals.docs_pruned)
                .Field("result_cache_hits", totals.cache_hits)
                .Field("result_cache_misses", serve.results.size() - totals.cache_hits)
                .Field("cache_hit_rate", hit_rate)
                .Field("bytes_per_posting", bytes_per_posting);
          };
          obs::JsonWriter line;
          fill(line);
          std::printf("%s\n", line.TakeLine().c_str());
          std::fflush(stdout);
          obs::EmitEvent("bench_result", fill);

          // The compressed payload must beat the 8-byte uncompressed
          // posting. Payload only: the all-in bytes_per_posting reported
          // above also carries the per-block metadata, which the fine bench
          // blocks trade for skipping.
          const auto& istats = server.index_stats();
          JXP_CHECK_LT(static_cast<double>(istats.docid_bytes + istats.freq_bytes) /
                           static_cast<double>(istats.num_postings),
                       qp::CompressedIndexStats::kUncompressedBytesPerPosting);

          // Bit-identity against the exhaustive oracle: the cold serve of
          // the first arm at 1 thread defines the per-pool-query truth;
          // every later serve — any arm, cache state, thread count,
          // and the zipf trace through its pool picks — must match exactly.
          if (oracle_cold.empty() && is_cold) {
            JXP_CHECK(arm.processor == qp::ProcessorKind::kExhaustive);
            for (const qp::ServedResult& result : serve.results) {
              oracle_cold.push_back(result.results);
            }
          } else if (is_cold) {
            for (size_t q = 0; q < serve.results.size(); ++q) {
              CheckBitIdentical(oracle_cold[q], serve.results[q].results,
                                qp::ProcessorName(arm.processor), q);
            }
          } else {
            for (size_t q = 0; q < serve.results.size(); ++q) {
              CheckBitIdentical(oracle_cold[zipf_picks[q]], serve.results[q].results,
                                "zipf", q);
            }
          }

          // Capture the per-arm totals the post-sweep checks compare
          // (deterministic, so any thread count's serve is representative).
          if (is_cold && arm.processor == qp::ProcessorKind::kExhaustive) {
            exhaustive_cold_postings = totals.postings_decoded;
          }
          if (is_cold && arm.processor == qp::ProcessorKind::kMaxScore &&
              !arm.cached) {
            maxscore_cold_postings = totals.postings_decoded;
          }
          if (is_cold && arm.cached) {
            primed_cold_postings = totals.postings_decoded;
            primed_cold_skipped_live = totals.blocks_skipped_live;
          }
          if (!is_cold && arm.cached) zipf_cache_hits = totals.cache_hits;
        }
      }
    }

    // Per-sweep self-checks: each axis of the serving tier must actually
    // engage at bench scale.
    JXP_CHECK_LT(maxscore_cold_postings, exhaustive_cold_postings)
        << "MaxScore failed to prune in sweep " << sweep.name;
    JXP_CHECK_LT(primed_cold_postings, maxscore_cold_postings)
        << "threshold priming failed to cut decode work in sweep " << sweep.name;
    JXP_CHECK_GT(primed_cold_skipped_live, 0u)
        << "live-block pruning never skipped a block in sweep " << sweep.name;
    JXP_CHECK_GT(zipf_cache_hits, 0u)
        << "the warm Zipfian trace never hit the result cache in sweep "
        << sweep.name;
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
