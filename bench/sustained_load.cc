// Sustained-load bench of the serving tier: how many queries per second can
// the MaxScore server sustain before its p99 end-to-end latency breaks the
// SLO, and where does the time go per stage?
//
// Three arms over the same Zipfian query trace:
//
//   batch   one deterministic ServeBatch pass (caches on, 1 thread). Its
//           work counters — postings decoded, cache hits — are pure
//           functions of the trace and are what CI gates against
//           bench/baselines/BENCH_LOAD.json. No latency is gated.
//   closed  N workers serving back-to-back (classic closed loop). Reported
//           for comparison only: a closed loop re-schedules the next query
//           only after the previous one finishes, so a slow query delays
//           the offered load and the measured percentiles hide exactly the
//           stalls an SLO cares about (coordinated omission).
//   open    the headline arm. Arrivals follow a Poisson process at a target
//           rate (exponential inter-arrival gaps, fixed up front from the
//           bench seed); each query's latency is measured from its
//           *scheduled arrival*, not from when a worker got around to
//           sending it, so queueing delay under overload is charged to the
//           queries that suffered it. The target rate ramps geometrically
//           until p99 exceeds --slo_ms; the last rate that held the SLO is
//           reported as max_sustainable_qps.
//
// Every arm reports per-stage latency percentiles (p50/p90/p99/p99.9 in
// nanoseconds) from the obs::HdrHistogram-backed LatencyRecorder, one JSON
// line per measurement (and a "bench_result" trace event when
// --metrics_out is set). The open and closed arms serve through
// QueryServer::ServeConcurrent, which bypasses the (single-writer) LRU
// caches; the bench cross-checks that path bit for bit against the batch
// oracle before taking any measurements.
//
// Extra flags on top of the common set:
//   --smoke              CI-sized run: short levels, fewer of them.
//   --threads=N          worker threads of the open/closed arms (default 4).
//   --duration_seconds=D seconds per measured level (default 2).
//   --slo_ms=L           p99 SLO of the open-loop ramp (default 20 ms).
//   --qps_start=R        first open-loop target rate (default 50).
//   --qps_ramp=F         geometric ramp factor (default 2).
//   --max_levels=K       ramp length cap (default 6).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/timer.h"
#include "obs/hdr_histogram.h"
#include "obs/json_writer.h"
#include "obs/latency_recorder.h"
#include "obs/trace.h"
#include "pagerank/pagerank.h"
#include "qp/serving.h"

namespace jxp {
namespace bench {

namespace {

/// Same fine blocks as micro_query_throughput (see the comment there): the
/// Section 6.3 layout needs small blocks before block-max skipping engages.
constexpr size_t kBenchBlockSize = 16;

struct LoadFlags {
  bool smoke = false;
  size_t threads = 4;
  double duration_seconds = 2.0;
  double slo_ms = 20.0;
  double qps_start = 50.0;
  double qps_ramp = 2.0;
  size_t max_levels = 6;
};

LoadFlags ParseLoadFlags(int argc, char** argv) {
  Flags flags;
  JXP_CHECK_OK(flags.Parse(argc, argv));
  LoadFlags f;
  f.smoke = flags.GetBool("smoke", f.smoke);
  if (f.smoke) {
    // CI-sized: two short levels still exercise the ramp logic (one level
    // can hold the SLO, the next can break it) without minutes of wall time.
    f.duration_seconds = 0.4;
    f.max_levels = 2;
    f.threads = 2;
  }
  f.threads = flags.GetCount("threads", f.threads);
  f.duration_seconds = flags.GetDouble("duration_seconds", f.duration_seconds);
  f.duration_seconds = flags.GetDouble("duration-seconds", f.duration_seconds);
  f.slo_ms = flags.GetDouble("slo_ms", f.slo_ms);
  f.slo_ms = flags.GetDouble("slo-ms", f.slo_ms);
  f.qps_start = flags.GetDouble("qps_start", f.qps_start);
  f.qps_start = flags.GetDouble("qps-start", f.qps_start);
  f.qps_ramp = flags.GetDouble("qps_ramp", f.qps_ramp);
  f.qps_ramp = flags.GetDouble("qps-ramp", f.qps_ramp);
  f.max_levels = flags.GetCount("max_levels", f.max_levels);
  JXP_CHECK_GT(f.threads, 0u);
  JXP_CHECK_GT(f.qps_start, 0.0);
  JXP_CHECK_GT(f.qps_ramp, 1.0);
  return f;
}

/// Draws `draws` pool indices under a Zipf(s) law (rank 0 most popular),
/// identical to micro_query_throughput's trace generator.
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

/// One measured serving run: end-to-end latencies (open loop: from the
/// scheduled arrival; closed loop: from the send) plus the per-stage
/// recorder, both merged across workers — integer-count merges, so the
/// aggregate is independent of which worker served which query. Filled via
/// an out-param (LatencyRecorder is neither copyable nor movable).
struct LoadResult {
  size_t queries = 0;
  double wall_seconds = 0;
  obs::HdrHistogram e2e;
  obs::LatencyRecorder stages;
};

/// Closed loop: each worker serves its share of the trace back-to-back.
void RunClosedLoop(qp::QueryServer& server, const std::vector<qp::ServedQuery>& trace,
                   size_t threads, double duration_seconds, LoadResult& out) {
  std::vector<obs::HdrHistogram> e2e(threads);
  std::vector<std::unique_ptr<obs::LatencyRecorder>> recorders;
  for (size_t w = 0; w < threads; ++w) {
    recorders.push_back(std::make_unique<obs::LatencyRecorder>());
  }
  std::atomic<size_t> served{0};
  const uint64_t start_ns = MonotonicNanos();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(duration_seconds * 1e9);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      size_t i = w;
      while (MonotonicNanos() < deadline_ns) {
        const uint64_t t0 = MonotonicNanos();
        qp::ServedResult result;
        server.ServeConcurrent(trace[i % trace.size()], result, recorders[w].get());
        e2e[w].Record(MonotonicNanos() - t0);
        served.fetch_add(1, std::memory_order_relaxed);
        i += threads;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  out.wall_seconds = static_cast<double>(MonotonicNanos() - start_ns) * 1e-9;
  out.queries = served.load();
  for (size_t w = 0; w < threads; ++w) {
    out.e2e.MergeFrom(e2e[w]);
    out.stages.MergeFrom(*recorders[w]);
  }
}

/// Open loop at `target_qps`: a Poisson arrival schedule is fixed up front
/// (deterministic in `seed`), workers own arrivals round-robin, and each
/// latency runs from the *scheduled* arrival — a worker that falls behind
/// keeps serving as fast as it can, and the backlog it accumulates is
/// charged to the delayed queries instead of silently thinning the load.
void RunOpenLoop(qp::QueryServer& server, const std::vector<qp::ServedQuery>& trace,
                 size_t threads, double duration_seconds, double target_qps,
                 uint64_t seed, LoadResult& out) {
  // Exponential inter-arrival gaps with mean 1/rate, in nanoseconds.
  std::vector<uint64_t> arrival_ns;
  Random rng(seed);
  double t_seconds = 0;
  while (t_seconds < duration_seconds) {
    const double u = rng.NextDouble();
    t_seconds += -std::log(1.0 - u) / target_qps;
    if (t_seconds >= duration_seconds) break;
    arrival_ns.push_back(static_cast<uint64_t>(t_seconds * 1e9));
  }

  std::vector<obs::HdrHistogram> e2e(threads);
  std::vector<std::unique_ptr<obs::LatencyRecorder>> recorders;
  for (size_t w = 0; w < threads; ++w) {
    recorders.push_back(std::make_unique<obs::LatencyRecorder>());
  }
  const uint64_t start_ns = MonotonicNanos();
  std::vector<std::thread> workers;
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < arrival_ns.size(); i += threads) {
        const uint64_t scheduled = start_ns + arrival_ns[i];
        const uint64_t now = MonotonicNanos();
        if (now < scheduled) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
        }
        qp::ServedResult result;
        server.ServeConcurrent(trace[i % trace.size()], result, recorders[w].get());
        const uint64_t done = MonotonicNanos();
        e2e[w].Record(done > scheduled ? done - scheduled : 0);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  out.wall_seconds = static_cast<double>(MonotonicNanos() - start_ns) * 1e-9;
  out.queries = arrival_ns.size();
  for (size_t w = 0; w < threads; ++w) {
    out.e2e.MergeFrom(e2e[w]);
    out.stages.MergeFrom(*recorders[w]);
  }
}

/// Shared latency fields of one measured arm: e2e percentiles in both ns
/// and ms (the SLO is stated in ms) plus the per-stage breakdown.
void FillLatencyFields(obs::JsonWriter& writer, const LoadResult& run) {
  writer.Field("queries", run.queries)
      .Field("wall_seconds", run.wall_seconds)
      .Field("achieved_qps", run.wall_seconds > 0
                                 ? static_cast<double>(run.queries) / run.wall_seconds
                                 : 0.0)
      .Field("p50_ms", static_cast<double>(run.e2e.ValueAtPercentile(50)) * 1e-6)
      .Field("p90_ms", static_cast<double>(run.e2e.ValueAtPercentile(90)) * 1e-6)
      .Field("p99_ms", static_cast<double>(run.e2e.ValueAtPercentile(99)) * 1e-6)
      .Field("p999_ms", static_cast<double>(run.e2e.ValueAtPercentile(99.9)) * 1e-6)
      .Field("max_ms", static_cast<double>(run.e2e.max()) * 1e-6);
  run.stages.WriteJsonFields(writer, "stage_");
}

void EmitLine(const std::function<void(obs::JsonWriter&)>& fill) {
  obs::JsonWriter line;
  fill(line);
  std::printf("%s\n", line.TakeLine().c_str());
  std::fflush(stdout);
  obs::EmitEvent("bench_result", fill);
}

}  // namespace

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const LoadFlags load = ParseLoadFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("webcrawl", config);
  PrintHeader("bench: sustained serving load (open-loop SLO ramp)", collection,
              config);

  // Section 6.3 peer layout and query pool, identical to
  // micro_query_throughput so the two benches describe the same tier.
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
  const auto truth =
      pagerank::ComputePageRank(collection.data.graph, pagerank::PageRankOptions());
  std::unordered_map<graph::PageId, double> prior;
  for (graph::PageId p = 0; p < collection.data.graph.NumNodes(); ++p) {
    prior[p] = truth.scores[p];
  }

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

  // The production-shaped server: MaxScore with the full serving tier
  // (caches + priming).
  qp::ServingOptions options;
  options.processor = qp::ProcessorKind::kMaxScore;
  options.k = 10;
  options.num_threads = 1;
  options.threshold_priming = true;
  options.result_cache_capacity = pool.size();
  options.threshold_cache_capacity = pool.size();
  qp::QueryServer server(&corpus, options);
  qp::CompressedIndexOptions copts;
  copts.block_size = kBenchBlockSize;
  copts.prior_weight = 0.4;
  for (const auto& index : indexes) server.AddPeer(index.get(), prior, copts);

  // --- Arm 1: deterministic batch pass (the CI-gated counters). Serve the
  // cold pool, then the Zipfian repeat trace against the warm caches — the
  // counters of both serves are pure functions of (collection, seed, trace).
  obs::LatencyRecorder batch_recorder;
  server.SetLatencyRecorder(&batch_recorder);
  const std::vector<qp::ServedResult> cold = server.ServeBatch(pool);
  const std::vector<qp::ServedResult> warm = server.ServeBatch(zipf_trace);
  server.SetLatencyRecorder(nullptr);
  size_t cold_postings = 0;
  size_t warm_hits = 0;
  size_t warm_postings = 0;
  for (const qp::ServedResult& r : cold) cold_postings += r.stats.decode.postings_decoded;
  for (const qp::ServedResult& r : warm) {
    warm_postings += r.stats.decode.postings_decoded;
    if (r.cache_hit) ++warm_hits;
  }
  EmitLine([&](obs::JsonWriter& writer) {
    writer.Field("bench", "sustained_load")
        .Field("arm", "batch")
        .Field("queries", pool.size() + zipf_trace.size())
        .Field("peers", indexes.size())
        .Field("k", options.k)
        .Field("zipf_s", config.zipf_s)
        .Field("cold_postings_decoded", cold_postings)
        .Field("warm_postings_decoded", warm_postings)
        .Field("warm_cache_hits", warm_hits)
        .Field("warm_cache_misses", zipf_trace.size() - warm_hits);
    batch_recorder.WriteJsonFields(writer, "stage_");
  });

  // --- Cross-check: the cache-bypassing concurrent path must reproduce the
  // batch oracle bit for bit (same pages, same doubles) before any load is
  // offered through it.
  for (size_t q = 0; q < pool.size(); ++q) {
    qp::ServedResult result;
    server.ServeConcurrent(pool[q], result);
    JXP_CHECK_EQ(result.results.size(), cold[q].results.size())
        << "ServeConcurrent diverged from ServeBatch on query " << q;
    for (size_t i = 0; i < result.results.size(); ++i) {
      JXP_CHECK(result.results[i].first == cold[q].results[i].first &&
                result.results[i].second == cold[q].results[i].second)
          << "ServeConcurrent diverged from ServeBatch on query " << q << " rank "
          << i;
    }
  }

  // --- Arm 2: closed loop (comparison only; see file comment).
  {
    LoadResult closed;
    RunClosedLoop(server, zipf_trace, load.threads, load.duration_seconds, closed);
    EmitLine([&](obs::JsonWriter& writer) {
      writer.Field("bench", "sustained_load")
          .Field("arm", "closed")
          .Field("threads", load.threads);
      FillLatencyFields(writer, closed);
    });
  }

  // --- Arm 3: the open-loop SLO ramp.
  double max_sustainable_qps = 0;
  double broke_at_qps = 0;
  double target = load.qps_start;
  for (size_t level = 0; level < load.max_levels; ++level) {
    LoadResult run;
    RunOpenLoop(server, zipf_trace, load.threads, load.duration_seconds, target,
                config.seed ^ (0xa11e + level), run);
    const double p99_ms = static_cast<double>(run.e2e.ValueAtPercentile(99)) * 1e-6;
    const bool met_slo = run.queries > 0 && p99_ms <= load.slo_ms;
    EmitLine([&](obs::JsonWriter& writer) {
      writer.Field("bench", "sustained_load")
          .Field("arm", "open")
          .Field("threads", load.threads)
          .Field("target_qps", target)
          .Field("slo_ms", load.slo_ms)
          .Field("met_slo", met_slo);
      FillLatencyFields(writer, run);
    });
    if (met_slo) {
      max_sustainable_qps = target;
    } else {
      broke_at_qps = target;
      break;
    }
    target *= load.qps_ramp;
  }

  EmitLine([&](obs::JsonWriter& writer) {
    writer.Field("bench", "sustained_load")
        .Field("arm", "summary")
        .Field("threads", load.threads)
        .Field("slo_ms", load.slo_ms)
        .Field("max_sustainable_qps", max_sustainable_qps)
        .Field("broke_at_qps", broke_at_qps);
  });
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
