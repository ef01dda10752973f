#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/check.h"
#include "metrics/summary.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace bench {

namespace {

/// The bench-wide telemetry sink. Leaked deliberately: the atexit metrics
/// dump below must be able to write after main returns, regardless of
/// static-destruction order.
obs::JsonlTraceSink* g_bench_sink = nullptr;

void DumpMetricsAtExit() {
  if (g_bench_sink == nullptr) return;
  // One JSON line per metric, through the same sink as the spans so the
  // whole run lives in one stream.
  const std::string lines = obs::MetricsRegistry::Global().Snapshot().ToJsonLines();
  std::string_view rest = lines;
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    if (!line.empty()) g_bench_sink->WriteLine(line);
    if (nl == std::string_view::npos) break;
    rest.remove_prefix(nl + 1);
  }
  obs::InstallTraceSink(nullptr);
  g_bench_sink->Flush();
}

/// Installs the JSON-lines sink at config.metrics_out (if set) and emits a
/// "bench_start" event identifying the binary and configuration. Called
/// once, from FromFlags, so every bench binary gets telemetry for free.
void StartBenchTelemetry(const char* argv0, const BenchConfig& config) {
  if (config.metrics_out.empty()) return;
  auto sink = obs::JsonlTraceSink::Open(config.metrics_out);
  JXP_CHECK(sink != nullptr) << "cannot open --metrics_out path " << config.metrics_out;
  g_bench_sink = sink.release();
  obs::InstallTraceSink(g_bench_sink);
  std::atexit(DumpMetricsAtExit);

  std::string_view bench_name = argv0 == nullptr ? "bench" : argv0;
  if (const size_t slash = bench_name.rfind('/'); slash != std::string_view::npos) {
    bench_name.remove_prefix(slash + 1);
  }
  obs::EmitEvent("bench_start", [&](obs::JsonWriter& writer) {
    writer.Field("bench", bench_name)
        .Field("amazon_scale", config.amazon_scale)
        .Field("web_scale", config.web_scale)
        .Field("peers_per_category", config.peers_per_category)
        .Field("meetings", config.meetings)
        .Field("eval_every", config.eval_every)
        .Field("top_k", config.top_k)
        .Field("seed", config.seed)
        .Field("wire",
               config.wire_mode == core::MeetingWireMode::kMeasured ? "measured"
                                                                    : "estimated");
  });
}

}  // namespace

BenchConfig BenchConfig::FromFlags(int argc, char** argv) {
  Flags flags;
  JXP_CHECK_OK(flags.Parse(argc, argv));
  BenchConfig config;
  config.amazon_scale = flags.GetDouble("amazon-scale", config.amazon_scale);
  config.web_scale = flags.GetDouble("web-scale", config.web_scale);
  // --scale overrides both (e.g. --scale=1 for paper-sized collections).
  if (flags.Has("scale")) {
    config.amazon_scale = flags.GetDouble("scale", 1.0);
    config.web_scale = flags.GetDouble("scale", 1.0);
  }
  config.peers_per_category = flags.GetCount("peers-per-category", config.peers_per_category);
  config.meetings = flags.GetCount("meetings", config.meetings);
  config.eval_every = flags.GetCount("eval-every", config.eval_every);
  config.top_k = flags.GetCount("topk", config.top_k);
  config.queries = flags.GetCount("queries", config.queries);
  config.zipf_s = flags.GetDouble("zipf_s", config.zipf_s);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(config.seed)));
  config.metrics_out = flags.GetString("metrics_out", config.metrics_out);
  const std::string wire = flags.GetString("wire", "estimated");
  if (wire == "measured") {
    config.wire_mode = core::MeetingWireMode::kMeasured;
  } else {
    JXP_CHECK(wire == "estimated") << "unknown --wire mode " << wire
                                   << " (expected estimated|measured)";
  }
  StartBenchTelemetry(argc > 0 ? argv[0] : nullptr, config);
  return config;
}

datasets::Collection MakeCollection(const std::string& name, const BenchConfig& config) {
  if (name == "amazon") return datasets::MakeAmazonLike(config.amazon_scale, config.seed);
  JXP_CHECK(name == "webcrawl") << "unknown collection " << name;
  return datasets::MakeWebCrawlLike(config.web_scale, config.seed);
}

std::vector<std::vector<graph::PageId>> PaperPartition(
    const datasets::Collection& collection, const BenchConfig& config, uint64_t seed) {
  Random rng(seed);
  crawler::PartitionOptions options;
  options.peers_per_category = config.peers_per_category;
  const size_t num_peers =
      config.peers_per_category * collection.data.num_categories;
  // ~3x total overlap across the network, as autonomous crawls of popular
  // regions produce, with widely varying per-peer crawl capacities (the
  // paper's peers span a ~20x size range, Table 1).
  options.crawler.max_pages =
      std::max<size_t>(20, collection.data.graph.NumNodes() * 3 / num_peers);
  options.crawler.max_depth = 8;
  options.budget_spread = 5.0;
  return CrawlBasedPartition(collection.data, options, rng);
}

core::JxpOptions BenchJxpOptions(const BenchConfig& config) {
  core::JxpOptions options;
  options.damping = 0.85;
  options.pr_tolerance = 1e-11;
  options.pr_max_iterations = 300;
  options.wire_mode = config.wire_mode;
  return options;
}

void PrintHeader(const std::string& title, const datasets::Collection& collection,
                 const BenchConfig& config) {
  std::printf("# %s\n", title.c_str());
  std::printf("# collection=%s pages=%zu links=%zu peers=%zu seed=%llu\n",
              collection.name.c_str(), collection.data.graph.NumNodes(),
              collection.data.graph.NumEdges(),
              config.peers_per_category * collection.data.num_categories,
              static_cast<unsigned long long>(config.seed));
}

void PrintRow(const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf(i == 0 ? "%g" : "\t%g", values[i]);
  }
  std::printf("\n");
}

void RunConvergenceSeries(core::JxpSimulation& sim, const BenchConfig& config,
                          const std::string& label) {
  const auto emit = [&](size_t meetings, const core::AccuracyPoint& point) {
    obs::EmitEvent("convergence", [&](obs::JsonWriter& writer) {
      writer.Field("series", label)
          .Field("meetings", meetings)
          .Field("footrule", point.footrule)
          .Field("linear_error", point.linear_error)
          .Field("total_traffic_bytes", sim.network().TotalTrafficBytes());
    });
  };
  const core::AccuracyPoint start = sim.Evaluate();
  std::printf("%s\t0\t%.6f\t%.8g\n", label.c_str(), start.footrule, start.linear_error);
  std::fflush(stdout);
  emit(0, start);
  while (sim.meetings_done() < config.meetings) {
    const size_t batch =
        std::min(config.eval_every, config.meetings - sim.meetings_done());
    sim.RunMeetings(batch);
    const core::AccuracyPoint point = sim.Evaluate();
    std::printf("%s\t%zu\t%.6f\t%.8g\n", label.c_str(), sim.meetings_done(),
                point.footrule, point.linear_error);
    std::fflush(stdout);
    emit(sim.meetings_done(), point);
  }
}

void PrintTrafficSummary(const core::JxpSimulation& sim) {
  const p2p::PeerTrafficSummary traffic = sim.network().AggregateTraffic();
  const double estimated = sim.total_estimated_traffic_bytes();
  std::printf("# total traffic: %.1f MB over %zu meetings, per meeting mean %.1f KB / "
              "max %.1f KB\n",
              traffic.total_bytes / (1024.0 * 1024.0), sim.meetings_done(),
              traffic.mean_bytes / 1024.0, traffic.max_bytes / 1024.0);
  // Under --wire=measured the two totals differ; the ratio is the wire
  // format's real cost against the paper's analytic byte model.
  std::printf("# estimated (analytic model): %.1f MB, measured/estimated %.3f\n",
              estimated / (1024.0 * 1024.0),
              estimated > 0 ? traffic.total_bytes / estimated : 0.0);
  obs::EmitEvent("traffic_summary", [&](obs::JsonWriter& writer) {
    writer.Field("meetings", sim.meetings_done())
        .Field("total_bytes", traffic.total_bytes)
        .Field("mean_bytes", traffic.mean_bytes)
        .Field("max_bytes", traffic.max_bytes)
        .Field("estimated_total_bytes", estimated)
        .Field("measured_over_estimated",
               estimated > 0 ? traffic.total_bytes / estimated : 0.0);
  });
}

void PrintMessageSizeSeries(const core::JxpSimulation& sim, const char* label,
                            size_t max_meetings_per_peer) {
  for (size_t m = 0; m < max_meetings_per_peer; ++m) {
    std::vector<double> kbytes;
    for (p2p::PeerId p = 0; p < sim.network().NumPeers(); ++p) {
      const auto& series = sim.network().TrafficOf(p).bytes_per_meeting;
      if (m < series.size()) kbytes.push_back(series[m] / 1024.0);
    }
    if (kbytes.size() < 4) break;  // Too few peers reached this meeting count.
    const metrics::Summary s = metrics::Summarize(kbytes);
    std::printf("%s\t%zu\t%.1f\t%.1f\t%.1f\t%zu\n", label, m + 1, s.q1, s.median, s.q3,
                s.count);
  }
}

}  // namespace bench
}  // namespace jxp
