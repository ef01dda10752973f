// serve_zipf: the query-serving tier (MaxScore over the packed block codec)
// under open-loop Poisson load from a Zipfian query trace, on 2 worker
// threads. It shares no code with the meeting path, so a meeting-path change
// should leave it flat and a serving change should show here only.
//
// Each round runs two phases: latency at a fixed offered rate (kFixedQps,
// timed from each query's scheduled arrival), and capacity, with both
// workers serving fixed chunks of the trace back to back. The last timed
// round then searches for the largest offered rate that still meets the
// p99 SLO without a growing backlog.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

#include "bench/e2e/e2e.h"
#include "common/random.h"
#include "crawler/partitioner.h"
#include "datasets/collections.h"
#include "obs/latency_recorder.h"
#include "pagerank/pagerank.h"
#include "qp/serving.h"
#include "search/corpus.h"
#include "search/index.h"

namespace jxp {
namespace e2e {
namespace {

constexpr double kWebScale = 0.05;
constexpr size_t kWorkers = 2;
constexpr size_t kPoolSize = 200;
constexpr size_t kTraceLength = 4096;
constexpr double kZipfExponent = 1.0;
constexpr double kFixedQps = 6000;
/// Share of --seconds, over all rounds, in the fixed-rate phase.
constexpr double kFixedShare = 0.4;
/// Capacity phase: chunks of kChunkQueries per second of --seconds over all
/// rounds (about a fifth of it on a 4-core x86 VM). The rate search takes
/// about 14 levels of kLevelSeconds.
constexpr size_t kChunkQueries = 2000;
constexpr double kChunksPerSecond = 3;
constexpr size_t kMinChunks = 4;
/// SLO of the rate search: p99 at most kSloMs, and the rate achieved at
/// least kMinAchievedShare of the rate offered (no growing backlog).
constexpr double kSloMs = 5.0;
constexpr double kMinAchievedShare = 0.97;
constexpr double kLevelSeconds = 0.5;
/// The rate search ramps by kRamp until a level fails, then bisects the
/// bracket kBisections times (resolution kRamp^(1/2^kBisections)).
constexpr double kRamp = 1.5;
constexpr int kMaxRampLevels = 12;
constexpr int kBisections = 4;
/// The Section 6.3 layout: 4 fragments per category, 3 hosted per peer.
constexpr size_t kFragments = 4;
constexpr size_t kFragmentsPerPeer = 3;
constexpr size_t kBlockSize = 16;

struct ServeWorld {
  datasets::Collection collection;
  search::Corpus corpus;
  std::vector<std::unique_ptr<search::PeerIndex>> indexes;
  std::unique_ptr<qp::QueryServer> server;
  std::vector<qp::ServedQuery> pool;
  std::vector<qp::ServedQuery> trace;
};

std::unique_ptr<ServeWorld> BuildWorld(uint64_t seed, Result& result) {
  auto world = std::make_unique<ServeWorld>();
  uint64_t t0 = MonotonicNanos();
  world->collection = datasets::MakeWebCrawlLike(kWebScale, kDataSeed);
  const graph::CategorizedGraph& data = world->collection.data;
  uint64_t t1 = MonotonicNanos();
  result.Sample("datasets.collection_s", Seconds(t0, t1));

  Random partition_rng(kDataSeed);
  const std::vector<std::vector<graph::PageId>> fragments =
      crawler::FragmentSplitPartition(data, kFragments, kFragmentsPerPeer, partition_rng);
  t0 = MonotonicNanos();
  result.Sample("crawler.partition_s", Seconds(t1, t0));

  world->corpus =
      search::Corpus::Generate(data, search::CorpusOptions(), kDataSeed ^ 0xc0de);
  for (size_t p = 0; p < fragments.size(); ++p) {
    auto index = std::make_unique<search::PeerIndex>(static_cast<p2p::PeerId>(p));
    for (const graph::PageId page : fragments[p]) {
      index->AddDocument(world->corpus.DocumentFor(page));
    }
    world->indexes.push_back(std::move(index));
  }
  t1 = MonotonicNanos();
  result.Sample("search.index_s", Seconds(t0, t1));

  const pagerank::PageRankResult truth =
      pagerank::ComputePageRank(data.graph, pagerank::PageRankOptions());
  std::unordered_map<graph::PageId, double> prior;
  for (graph::PageId p = 0; p < data.graph.NumNodes(); ++p) prior[p] = truth.scores[p];
  t0 = MonotonicNanos();
  result.Sample("pagerank.baseline_s", Seconds(t1, t0));

  // The production-shaped server: MaxScore, packed blocks of 16, k = 10,
  // term-level threshold priming and both caches.
  qp::ServingOptions options;
  options.processor = qp::ProcessorKind::kMaxScore;
  options.k = 10;
  options.num_threads = 1;
  options.threshold_priming = true;
  options.result_cache_capacity = kPoolSize;
  options.threshold_cache_capacity = kPoolSize;
  world->server = std::make_unique<qp::QueryServer>(&world->corpus, options);
  qp::CompressedIndexOptions copts;
  copts.block_size = kBlockSize;
  copts.codec = qp::BlockCodec::kPacked;
  copts.prior_weight = 0.4;
  for (const auto& index : world->indexes) {
    world->server->AddPeer(index.get(), prior, copts);
  }
  t1 = MonotonicNanos();
  result.Sample("qp.freeze_s", Seconds(t0, t1));

  // Query pool (1-3 characteristic terms of a category) and a Zipfian
  // trace over it: the skew of real query logs.
  Random query_rng(kDataSeed + 1);
  for (size_t i = 0; i < kPoolSize; ++i) {
    qp::ServedQuery query;
    query.terms = world->corpus.SampleQueryTerms(
        static_cast<graph::CategoryId>(i % data.num_categories), 1 + i % 3, query_rng);
    world->pool.push_back(std::move(query));
  }
  std::vector<double> cdf(kPoolSize);
  double total = 0;
  for (size_t i = 0; i < kPoolSize; ++i) {
    total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
    cdf[i] = total;
  }
  Random zipf_rng(seed);
  for (size_t i = 0; i < kTraceLength; ++i) {
    const double u = zipf_rng.NextDouble() * total;
    const auto pick = static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                                          cdf.begin());
    world->trace.push_back(world->pool[std::min(pick, kPoolSize - 1)]);
  }
  return world;
}

/// Per-query measurements of one open-loop level, in arrival order.
struct LevelRun {
  std::vector<double> latency_ms;  // Scheduled arrival -> done.
  std::vector<double> serve_ms;    // The ServeConcurrent call.
  std::vector<double> queue_ms;    // Scheduled arrival -> a worker free.
  std::vector<double> late_ms;     // Worker free -> dispatched (timer slack).
  std::vector<size_t> postings;
  double achieved_qps = 0;
};

/// Open loop at `qps` for `seconds`: a seeded Poisson schedule, claimed in
/// order by whichever worker is free (one shared queue). Latency runs from
/// the scheduled arrival, so a stall is charged to every query it delays.
/// Non-empty `spans` and `stages` (one per worker) trace every query.
void RunLevel(qp::QueryServer& server, const std::vector<qp::ServedQuery>& trace,
              double qps, double seconds, uint64_t seed,
              std::vector<std::unique_ptr<SpanRecorder>>& spans,
              std::vector<std::unique_ptr<obs::LatencyRecorder>>& stages, LevelRun& out) {
  std::vector<uint64_t> arrival_ns;
  Random rng(seed);
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / qps;
    if (t >= seconds) break;
    arrival_ns.push_back(static_cast<uint64_t>(t * 1e9));
  }
  const size_t n = arrival_ns.size();
  out.latency_ms.assign(n, 0);
  out.serve_ms.assign(n, 0);
  out.queue_ms.assign(n, 0);
  out.late_ms.assign(n, 0);
  out.postings.assign(n, 0);

  std::atomic<size_t> next{0};
  std::atomic<uint64_t> last_done{0};
  const uint64_t start = MonotonicNanos() + 1000000;  // 1 ms to start workers.
  std::vector<std::jthread> workers;  // Joined on every path.
  for (size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      uint64_t latest = 0;
      while (true) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        const uint64_t claimed = MonotonicNanos();
        const uint64_t scheduled = start + arrival_ns[i];
        // Spin until the arrival: a sleeping worker wakes tens of
        // microseconds late and on a cold cache, which would be a large and
        // noisy share of a query. Only long gaps (low rates) sleep first.
        if (claimed + 5000000 < scheduled) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(scheduled - claimed - 1000000));
        }
        while (MonotonicNanos() < scheduled) {
        }
        SpanRecorder* recorder = spans.empty() ? nullptr : spans[w].get();
        qp::ServedResult result;
        const uint64_t dispatched = MonotonicNanos();
        int32_t root = -1;
        if (recorder != nullptr) {
          // The root opens at the scheduled arrival: the wait for a worker
          // and the generator's slack are part of the query.
          root = recorder->Add("query", "bench", i + 1, -1, scheduled, 0);
          recorder->Add("queue_wait", "loadgen", i + 1, root, scheduled, dispatched);
        }
        {
          ScopedSpan serve(recorder, "serve", "qp", i + 1, root);
          server.ServeConcurrent(trace[i % trace.size()], result,
                                 stages.empty() ? nullptr : stages[w].get());
        }
        const uint64_t served = MonotonicNanos();
        if (recorder != nullptr) recorder->End(root);
        const uint64_t free_at = std::max(claimed, scheduled);
        out.latency_ms[i] = Millis(scheduled, served);
        out.serve_ms[i] = Millis(dispatched, served);
        out.queue_ms[i] = claimed > scheduled ? Millis(scheduled, claimed) : 0.0;
        out.late_ms[i] = Millis(free_at, dispatched);
        out.postings[i] = result.stats.decode.postings_decoded;
        latest = std::max(latest, served);
      }
      uint64_t seen = last_done.load();
      while (latest > seen && !last_done.compare_exchange_weak(seen, latest)) {
      }
    });
  }
  for (std::jthread& worker : workers) worker.join();
  out.achieved_qps =
      n > 0 ? static_cast<double>(n) / Seconds(start, last_done.load()) : 0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * values.size())) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

/// Seconds kWorkers workers take to serve trace queries [first, first +
/// kChunkQueries) back to back.
double ClosedLoopSeconds(qp::QueryServer& server, const std::vector<qp::ServedQuery>& trace,
                         size_t first) {
  std::atomic<size_t> next{first};
  const uint64_t start = MonotonicNanos();
  {
    std::vector<std::jthread> workers;  // Joined on every path.
    for (size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&] {
        for (size_t i = next++; i < first + kChunkQueries; i = next++) {
          qp::ServedResult result;
          server.ServeConcurrent(trace[i % trace.size()], result);
        }
      });
    }
  }
  return Seconds(start, MonotonicNanos());
}

/// One level of the rate search; a failing level is rerun once, so a
/// single stall from outside the benchmark does not end the search.
bool LevelMeetsSlo(qp::QueryServer& server, const std::vector<qp::ServedQuery>& trace,
                   double qps, uint64_t seed) {
  std::vector<std::unique_ptr<SpanRecorder>> no_spans;
  std::vector<std::unique_ptr<obs::LatencyRecorder>> no_stages;
  for (int attempt = 0; attempt < 2; ++attempt) {
    LevelRun run;
    RunLevel(server, trace, qps, kLevelSeconds, seed + attempt, no_spans, no_stages, run);
    const double p99 = Percentile(run.latency_ms, 99);
    if (p99 <= kSloMs && run.achieved_qps >= kMinAchievedShare * qps) return true;
  }
  return false;
}

/// The largest offered rate that meets the SLO: ramp geometrically from the
/// fixed rate (up while levels pass, down while they fail) until the SLO is
/// bracketed, then bisect the bracket. Returns 0 when nothing was bracketed.
double MaxQpsAtSlo(qp::QueryServer& server, const std::vector<qp::ServedQuery>& trace,
                   uint64_t seed) {
  const auto meets = [&](double qps) {
    return LevelMeetsSlo(server, trace, qps, seed += 2);
  };
  double pass = 0;
  double fail = 0;
  if (meets(kFixedQps)) {
    pass = kFixedQps;
    for (int level = 0; level < kMaxRampLevels && fail == 0; ++level) {
      if (meets(pass * kRamp)) {
        pass *= kRamp;
      } else {
        fail = pass * kRamp;
      }
    }
  } else {
    fail = kFixedQps;
    for (int level = 0; level < kMaxRampLevels && pass == 0; ++level) {
      if (meets(fail / kRamp)) {
        pass = fail / kRamp;
      } else {
        fail /= kRamp;
      }
    }
  }
  if (pass == 0 || fail == 0) return 0;
  for (int step = 0; step < kBisections; ++step) {
    const double mid = std::sqrt(pass * fail);
    if (meets(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass;
}

/// Gate: the cache-bypassing concurrent path the load runs through
/// reproduces the cached batch path bit for bit. Records the digest of the
/// pool's results.
void CheckConcurrentMatchesBatch(ServeWorld& world, Result& result) {
  const std::vector<qp::ServedResult> batch = world.server->ServeBatch(world.pool);
  uint64_t digest = Fnv1a(nullptr, 0);
  bool identical = batch.size() == world.pool.size();
  for (size_t q = 0; q < world.pool.size() && identical; ++q) {
    qp::ServedResult concurrent;
    world.server->ServeConcurrent(world.pool[q], concurrent);
    identical = concurrent.results == batch[q].results;
    for (const auto& [page, score] : batch[q].results) {
      digest = Fnv1a(&page, sizeof(page), digest);
      digest = HashDouble(score, digest);
    }
  }
  result.Check(identical, "ServeConcurrent == ServeBatch on every pool query");
  result.Digest(digest);
}

/// Latency at the fixed offered rate; the traced round records spans and
/// the serving tier's stage profile instead of the per-layer samples.
void RunFixedRate(const RunOptions& options, ServeWorld& world, bool traced,
                  Result& result) {
  std::vector<std::unique_ptr<SpanRecorder>> spans;
  std::vector<std::unique_ptr<obs::LatencyRecorder>> stages;
  const double seconds = options.seconds * kFixedShare / kRounds;
  if (traced) {
    const auto capacity = static_cast<size_t>(kFixedQps * seconds * 4) + 1024;
    for (size_t w = 0; w < kWorkers; ++w) {
      spans.push_back(std::make_unique<SpanRecorder>(capacity));
      stages.push_back(std::make_unique<obs::LatencyRecorder>());
    }
  }
  const uint64_t origin = MonotonicNanos();
  LevelRun fixed;
  RunLevel(*world.server, world.trace, kFixedQps, seconds, options.seed ^ 0xa11e, spans,
           stages, fixed);
  for (size_t i = 0; i < fixed.latency_ms.size(); ++i) result.Attempt(true);
  if (!traced) {
    double postings = 0;
    for (size_t i = 0; i < fixed.latency_ms.size(); ++i) {
      result.Sample("op_ms", fixed.latency_ms[i]);
      result.Sample("qp.serve_ms", fixed.serve_ms[i]);
      result.Sample("qp.queue_wait_ms", fixed.queue_ms[i]);
      result.Sample("loadgen.lateness_ms", fixed.late_ms[i]);
      postings += static_cast<double>(fixed.postings[i]);
    }
    result.Value("qp.postings_decoded_per_query",
                 postings / static_cast<double>(fixed.latency_ms.size()));
    return;
  }
  for (const double latency_ms : fixed.latency_ms) result.Sample("traced.op_ms", latency_ms);
  obs::LatencyRecorder merged;
  for (const auto& recorder : stages) merged.MergeFrom(*recorder);
  const auto p50_ns = [&](obs::LatencyStage stage) {
    return static_cast<double>(merged.StageSnapshot(stage).ValueAtPercentile(50));
  };
  result.Value("qp.stage_decode_ns.p50", p50_ns(obs::LatencyStage::kDecode));
  result.Value("qp.stage_scoring_ns.p50", p50_ns(obs::LatencyStage::kScoring));
  result.Value("qp.stage_heap_ns.p50", p50_ns(obs::LatencyStage::kHeap));
  uint64_t dropped = 0;
  std::vector<const SpanRecorder*> recorders;
  for (const auto& recorder : spans) {
    recorders.push_back(recorder.get());
    dropped += recorder->dropped();
  }
  result.Check(dropped == 0, "the span store held every span");
  result.Check(WriteSpans(options.out_dir + "/spans.jsonl", recorders, origin),
               "spans.jsonl written");
}

}  // namespace

void RunServeZipf(const RunOptions& options, Result& result) {
  const size_t chunks = std::max(
      kMinChunks, static_cast<size_t>(options.seconds * kChunksPerSecond / kRounds));
  result.Value("capacity_chunk_queries", kChunkQueries);
  RunRounds(
      options, result, [&] { return BuildWorld(options.seed, result); },
      [&](ServeWorld& world, int round, bool traced) {
        CheckConcurrentMatchesBatch(world, result);
        RunFixedRate(options, world, traced, result);
        if (traced) return;
        // Capacity: the same chunks of the trace every round.
        for (size_t chunk = 0; chunk < chunks; ++chunk) {
          result.Sample("capacity_chunk_s",
                        ClosedLoopSeconds(*world.server, world.trace, chunk * kChunkQueries));
        }
        if (round + 1 == kRounds) {
          const double max_qps =
              MaxQpsAtSlo(*world.server, world.trace, options.seed ^ 0x5105eed);
          result.Check(max_qps > 0, "the SLO search bracketed the largest passing rate");
          result.Value("qp.max_qps_at_slo", max_qps);
        }
      });
}

}  // namespace e2e
}  // namespace jxp

