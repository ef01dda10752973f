#include "qp/serving.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "obs/latency_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/index.h"

namespace jxp {
namespace qp {
namespace {

struct ServingFixture {
  ServingFixture() {
    Random rng(71);
    graph::WebGraphParams params;
    params.num_nodes = 900;
    params.num_categories = 3;
    collection = graph::GenerateWebGraph(params, rng);
    search::CorpusOptions coptions;
    coptions.vocabulary_size = 3000;
    coptions.category_vocab_size = 400;
    corpus = search::Corpus::Generate(collection, coptions, 72);
    // Three peers, each holding a third of the pages plus a band of
    // replicas overlapping the next peer (exercises cross-peer dedup).
    for (p2p::PeerId peer = 0; peer < 3; ++peer) {
      auto index = std::make_unique<search::PeerIndex>(peer);
      const graph::PageId begin = peer * 300;
      const graph::PageId end = begin + 350;  // 50 replicated pages.
      for (graph::PageId p = begin; p < end && p < 900; ++p) {
        index->AddDocument(corpus.DocumentFor(p));
      }
      if (peer == 2) {
        for (graph::PageId p = 0; p < 50; ++p) index->AddDocument(corpus.DocumentFor(p));
      }
      indexes.push_back(std::move(index));
    }
    Random qrng(73);
    for (int i = 0; i < 24; ++i) {
      ServedQuery query;
      query.terms = corpus.SampleQueryTerms(static_cast<graph::CategoryId>(i % 3),
                                            2 + i % 2, qrng);
      queries.push_back(std::move(query));
    }
  }

  std::unique_ptr<QueryServer> MakeServerWithOptions(ServingOptions options,
                                                     double prior_weight = 0.0,
                                                     size_t block_size = 128) const {
    auto server = std::make_unique<QueryServer>(&corpus, options);
    CompressedIndexOptions copts;
    copts.prior_weight = prior_weight;
    copts.block_size = block_size;
    for (const auto& index : indexes) {
      server->AddPeer(index.get(), jxp_scores, copts);
    }
    return server;
  }

  std::unique_ptr<QueryServer> MakeServer(ProcessorKind processor, size_t threads,
                                          double prior_weight = 0.0,
                                          size_t block_size = 128) const {
    ServingOptions options;
    options.processor = processor;
    options.k = 10;
    options.num_threads = threads;
    return MakeServerWithOptions(options, prior_weight, block_size);
  }

  graph::CategorizedGraph collection;
  search::Corpus corpus;
  std::vector<std::unique_ptr<search::PeerIndex>> indexes;
  std::unordered_map<graph::PageId, double> jxp_scores;
  std::vector<ServedQuery> queries;
};

void ExpectSameResults(const std::vector<ServedResult>& a,
                       const std::vector<ServedResult>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].results.size(), b[q].results.size()) << label << " query " << q;
    for (size_t i = 0; i < a[q].results.size(); ++i) {
      EXPECT_EQ(a[q].results[i].first, b[q].results[i].first)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(a[q].results[i].second, b[q].results[i].second)
          << label << " query " << q << " rank " << i;
    }
  }
}

TEST(QueryServerTest, AllProcessorsAgreeOnResults) {
  ServingFixture fx;
  const auto exhaustive = fx.MakeServer(ProcessorKind::kExhaustive, 1)->ServeBatch(fx.queries);
  const auto maxscore = fx.MakeServer(ProcessorKind::kMaxScore, 1)->ServeBatch(fx.queries);
  ExpectSameResults(exhaustive, maxscore, "maxscore vs exhaustive");
}

TEST(QueryServerTest, ResultsAreThreadCountInvariant) {
  ServingFixture fx;
  const auto one = fx.MakeServer(ProcessorKind::kMaxScore, 1)->ServeBatch(fx.queries);
  const auto two = fx.MakeServer(ProcessorKind::kMaxScore, 2)->ServeBatch(fx.queries);
  const auto four = fx.MakeServer(ProcessorKind::kMaxScore, 4)->ServeBatch(fx.queries);
  ExpectSameResults(one, two, "1 vs 2 threads");
  ExpectSameResults(one, four, "1 vs 4 threads");
}

TEST(QueryServerTest, MetricsAreThreadCountInvariant) {
  ServingFixture fx;
  std::string baseline;
  for (size_t threads : {1u, 2u, 4u}) {
    obs::MetricsRegistry::Global().Reset();
    fx.MakeServer(ProcessorKind::kMaxScore, threads)->ServeBatch(fx.queries);
    // Non-timing metrics only: latency histograms legitimately vary.
    const std::string snapshot =
        obs::MetricsRegistry::Global().Snapshot().ToJsonLines(/*include_timing=*/false);
    if (threads == 1) {
      baseline = snapshot;
      EXPECT_NE(baseline.find("jxp.qp.queries"), std::string::npos);
      EXPECT_NE(baseline.find("jxp.qp.postings_decoded"), std::string::npos);
      EXPECT_NE(baseline.find("jxp.qp.blocks_skipped"), std::string::npos);
      EXPECT_NE(baseline.find("jxp.qp.candidates_scored"), std::string::npos);
    } else {
      EXPECT_EQ(snapshot, baseline) << threads << " threads";
    }
  }
  obs::MetricsRegistry::Global().Reset();
}

TEST(QueryServerTest, EmitsServeBatchSpan) {
  ServingFixture fx;
  obs::StringTraceSink sink;
  {
    obs::ScopedTraceSink scoped(&sink);
    fx.MakeServer(ProcessorKind::kMaxScore, 2)->ServeBatch(fx.queries);
  }
  const std::vector<std::string> lines = sink.TakeLines();
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("qp.serve_batch") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(QueryServerTest, ReportsAggregatedIndexStats) {
  ServingFixture fx;
  const auto server = fx.MakeServer(ProcessorKind::kMaxScore, 1);
  EXPECT_EQ(server->num_peers(), 3u);
  size_t postings = 0;
  for (size_t p = 0; p < server->num_peers(); ++p) {
    postings += server->compressed(p).stats().num_postings;
  }
  EXPECT_EQ(server->index_stats().num_postings, postings);
  EXPECT_LT(server->index_stats().CompressedBytesPerPosting(),
            CompressedIndexStats::kUncompressedBytesPerPosting);
}

TEST(QueryServerTest, MaxScoreDecodesFewerPostingsThanExhaustive) {
  ServingFixture fx;
  // Small blocks: with ~350-document peers the default 128-entry blocks hold
  // whole posting lists, so block skipping would never trigger.
  const auto exhaustive =
      fx.MakeServer(ProcessorKind::kExhaustive, 1, 0.0, /*block_size=*/16)->ServeBatch(fx.queries);
  const auto maxscore =
      fx.MakeServer(ProcessorKind::kMaxScore, 1, 0.0, /*block_size=*/16)->ServeBatch(fx.queries);
  size_t exhaustive_total = 0;
  size_t maxscore_total = 0;
  for (size_t q = 0; q < fx.queries.size(); ++q) {
    exhaustive_total += exhaustive[q].stats.decode.postings_decoded;
    maxscore_total += maxscore[q].stats.decode.postings_decoded;
    EXPECT_LE(maxscore[q].stats.decode.postings_decoded,
              exhaustive[q].stats.decode.postings_decoded)
        << "query " << q;
  }
  EXPECT_LT(maxscore_total, exhaustive_total);
}

ServingOptions CachedOptions(ProcessorKind processor, size_t threads) {
  ServingOptions options;
  options.processor = processor;
  options.k = 10;
  options.num_threads = threads;
  options.result_cache_capacity = 64;
  options.threshold_cache_capacity = 64;
  return options;
}

TEST(QueryServerTest, CachedServingIsBitIdenticalToCold) {
  ServingFixture fx;
  // A trace with repeats: the second half replays the first. The cached
  // server must return bit-identical results to the uncached one, with the
  // replays marked as hits.
  std::vector<ServedQuery> trace = fx.queries;
  trace.insert(trace.end(), fx.queries.begin(), fx.queries.end());

  const auto cold = fx.MakeServer(ProcessorKind::kMaxScore, 1)->ServeBatch(trace);
  for (size_t threads : {1u, 4u}) {
    const auto cached =
        fx.MakeServerWithOptions(CachedOptions(ProcessorKind::kMaxScore, threads))
            ->ServeBatch(trace);
    ExpectSameResults(cold, cached, "cached vs cold");
    for (size_t q = 0; q < fx.queries.size(); ++q) {
      EXPECT_FALSE(cached[q].cache_hit) << "first occurrence " << q;
      EXPECT_TRUE(cached[q + fx.queries.size()].cache_hit) << "replay " << q;
    }
  }
}

TEST(QueryServerTest, InBatchDuplicatesHitWithoutReserving) {
  ServingFixture fx;
  // Same query three times in ONE batch: one evaluation, two in-batch hits,
  // served correctly at any thread count.
  std::vector<ServedQuery> trace = {fx.queries[0], fx.queries[0], fx.queries[0]};
  const auto served =
      fx.MakeServerWithOptions(CachedOptions(ProcessorKind::kMaxScore, 4))
          ->ServeBatch(trace);
  EXPECT_FALSE(served[0].cache_hit);
  EXPECT_TRUE(served[1].cache_hit);
  EXPECT_TRUE(served[2].cache_hit);
  ExpectSameResults({served[0]}, {served[1]}, "dup 1");
  ExpectSameResults({served[0]}, {served[2]}, "dup 2");
  EXPECT_EQ(served[1].stats.decode.postings_decoded, 0u);
}

TEST(QueryServerTest, CachedMetricsAreThreadCountInvariant) {
  ServingFixture fx;
  std::vector<ServedQuery> trace = fx.queries;
  trace.insert(trace.end(), fx.queries.begin(), fx.queries.end());
  std::string baseline;
  for (size_t threads : {1u, 2u, 4u}) {
    obs::MetricsRegistry::Global().Reset();
    fx.MakeServerWithOptions(CachedOptions(ProcessorKind::kMaxScore, threads))
        ->ServeBatch(trace);
    const std::string snapshot =
        obs::MetricsRegistry::Global().Snapshot().ToJsonLines(/*include_timing=*/false);
    if (threads == 1) {
      baseline = snapshot;
      EXPECT_NE(baseline.find("jxp.qp.result_cache_hits"), std::string::npos);
      EXPECT_NE(baseline.find("jxp.qp.primed_queries"), std::string::npos);
    } else {
      EXPECT_EQ(snapshot, baseline) << threads << " threads";
    }
  }
  obs::MetricsRegistry::Global().Reset();
}

TEST(QueryServerTest, ThresholdPrimingPreservesResults) {
  ServingFixture fx;
  ServingOptions unprimed = CachedOptions(ProcessorKind::kMaxScore, 1);
  unprimed.result_cache_capacity = 0;  // Force every query through MaxScore.
  unprimed.threshold_cache_capacity = 0;
  unprimed.threshold_priming = false;  // Pure PR 4 serving path.
  ServingOptions primed = unprimed;
  primed.threshold_priming = true;
  primed.threshold_cache_capacity = 64;

  // Serve the trace twice so the second pass runs with a warm threshold
  // cache (every query primed from its own exact key).
  std::vector<ServedQuery> trace = fx.queries;
  trace.insert(trace.end(), fx.queries.begin(), fx.queries.end());
  // Small blocks as in MaxScoreDecodesFewerPostingsThanExhaustive: the
  // ~350-document peers need fine-grained blocks for skipping to have any
  // room to act.
  const auto cold =
      fx.MakeServerWithOptions(unprimed, 0.0, /*block_size=*/16)->ServeBatch(trace);
  const auto hot =
      fx.MakeServerWithOptions(primed, 0.0, /*block_size=*/16)->ServeBatch(trace);
  ExpectSameResults(cold, hot, "primed vs unprimed");

  // Priming may only ever remove decode work, never add it. (The strict
  // reduction is pinned at the processor level in
  // MaxScoreTopKTest.LiveBlockSkippingCutsDecodeOnSelectiveQueries; on this
  // small fixture the serving-level thresholds land where multi-term range
  // bounds stay alive.)
  size_t cold_postings = 0;
  size_t hot_postings = 0;
  for (size_t q = 0; q < trace.size(); ++q) {
    cold_postings += cold[q].stats.decode.postings_decoded;
    hot_postings += hot[q].stats.decode.postings_decoded;
  }
  EXPECT_LE(hot_postings, cold_postings);
}

TEST(QueryServerTest, AddPeerInvalidatesCaches) {
  ServingFixture fx;
  auto server = fx.MakeServerWithOptions(CachedOptions(ProcessorKind::kMaxScore, 1));
  std::vector<ServedQuery> one_query = {fx.queries[0]};
  server->ServeBatch(one_query);
  auto replay = server->ServeBatch(one_query);
  EXPECT_TRUE(replay[0].cache_hit);

  // A new peer changes the merged results; the stale entry must not survive.
  search::PeerIndex extra(99);
  for (graph::PageId p = 600; p < 900; ++p) extra.AddDocument(fx.corpus.DocumentFor(p));
  server->AddPeer(&extra, fx.jxp_scores, CompressedIndexOptions{});
  auto refreshed = server->ServeBatch(one_query);
  EXPECT_FALSE(refreshed[0].cache_hit);

  auto fresh = fx.MakeServerWithOptions(CachedOptions(ProcessorKind::kMaxScore, 1));
  fresh->AddPeer(&extra, fx.jxp_scores, CompressedIndexOptions{});
  ExpectSameResults(refreshed, fresh->ServeBatch(one_query), "post-AddPeer");
}

TEST(QueryServerTest, ServeConcurrentMatchesServeBatch) {
  ServingFixture fx;
  auto server = fx.MakeServer(ProcessorKind::kMaxScore, 1);
  const auto oracle = server->ServeBatch(fx.queries);

  // Real threads, interleaved ownership (the TSan CI job runs this), served
  // once with per-worker recorders and once without. ServeConcurrent
  // bypasses the LRU caches, so against a cache-less server it must
  // reproduce ServeBatch bit for bit; and the recorder, the one profiled
  // serving path, must change neither results nor any non-timing metric.
  constexpr size_t kThreads = 4;
  const auto serve = [&](bool recorded, std::vector<ServedResult>& out) {
    std::vector<std::unique_ptr<obs::LatencyRecorder>> recorders;
    for (size_t t = 0; recorded && t < kThreads; ++t) {
      recorders.push_back(std::make_unique<obs::LatencyRecorder>());
    }
    out.assign(fx.queries.size(), ServedResult{});
    obs::MetricsRegistry::Global().Reset();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < fx.queries.size(); i += kThreads) {
          server->ServeConcurrent(fx.queries[i], out[i],
                                  recorded ? recorders[t].get() : nullptr);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    obs::LatencyRecorder merged;
    for (const auto& r : recorders) merged.MergeFrom(*r);
    EXPECT_EQ(merged.StageSnapshot(obs::LatencyStage::kTotal).count(),
              recorded ? fx.queries.size() : 0u);
    return obs::MetricsRegistry::Global().Snapshot().ToJsonLines(/*include_timing=*/false);
  };
  std::vector<ServedResult> recorded;
  std::vector<ServedResult> unrecorded;
  const std::string metrics_recorded = serve(true, recorded);
  const std::string metrics_unrecorded = serve(false, unrecorded);

  ExpectSameResults(oracle, recorded, "concurrent vs batch");
  ExpectSameResults(recorded, unrecorded, "recorder on vs off");
  // Every work counter too: both paths prime from the same term primers.
  for (size_t q = 0; q < fx.queries.size(); ++q) {
    EXPECT_TRUE(recorded[q].stats == oracle[q].stats) << "query " << q;
    EXPECT_TRUE(unrecorded[q].stats == oracle[q].stats) << "query " << q;
  }
  EXPECT_EQ(metrics_recorded, metrics_unrecorded);
  EXPECT_NE(metrics_recorded.find("jxp.qp.postings_decoded"), std::string::npos);
  obs::MetricsRegistry::Global().Reset();
}

TEST(QueryServerTest, ServingMetricNamesConformToConvention) {
  // Registry self-check after driving the full serving path: every metric
  // the query pipeline registers obeys the naming convention, so the
  // timing filter in ToJsonLines(false) provably catches all of them.
  ServingFixture fx;
  obs::MetricsRegistry::Global().Reset();
  fx.MakeServerWithOptions(CachedOptions(ProcessorKind::kMaxScore, 2))
      ->ServeBatch(fx.queries);
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_FALSE(snapshot.counters.empty());
  for (const auto& c : snapshot.counters) {
    EXPECT_EQ(obs::MetricNameViolation(c.name), "") << c.name;
  }
  for (const auto& g : snapshot.gauges) {
    EXPECT_EQ(obs::MetricNameViolation(g.name), "") << g.name;
  }
  for (const auto& h : snapshot.histograms) {
    EXPECT_EQ(obs::MetricNameViolation(h.name), "") << h.name;
  }
  obs::MetricsRegistry::Global().Reset();
}

TEST(QueryServerTest, PriorFusionServesConsistently) {
  ServingFixture fx;
  for (graph::PageId p = 0; p < 900; ++p) {
    fx.jxp_scores[p] = 1.0 / (3.0 + static_cast<double>((p * 40503u) % 500));
  }
  const auto exhaustive =
      fx.MakeServer(ProcessorKind::kExhaustive, 1, 0.4)->ServeBatch(fx.queries);
  const auto maxscore =
      fx.MakeServer(ProcessorKind::kMaxScore, 4, 0.4)->ServeBatch(fx.queries);
  ExpectSameResults(exhaustive, maxscore, "fused maxscore vs exhaustive");
}

}  // namespace
}  // namespace qp
}  // namespace jxp
