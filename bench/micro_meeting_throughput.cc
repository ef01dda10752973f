// Meeting-engine throughput: meetings/second and per-merge CPU cost of
// RunMeetingsParallel at 1/2/4/8 worker threads on the categorized
// web-crawl collection. One JSON line per configuration, so runs are easy
// to diff and plot. Per-peer scores are bit-identical across all thread
// counts (see DESIGN.md, "Concurrency model"); only the timings change.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "obs/json_writer.h"
#include "obs/trace.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  if (config.meetings > 600) config.meetings = 600;

  const datasets::Collection collection = MakeCollection("webcrawl", config);
  const auto fragments = PaperPartition(collection, config, config.seed);

  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.seed = config.seed;
    sim_config.eval_top_k = 100;
    sim_config.num_threads = threads;
    core::JxpSimulation sim(collection.data.graph, fragments, sim_config);

    WallTimer wall;
    CpuTimer cpu;
    sim.RunMeetingsParallel(config.meetings);
    const double wall_s = wall.ElapsedSeconds();
    const double cpu_ms = cpu.ElapsedMillis();

    double merge_ms_total = 0;
    size_t merges = 0;
    for (const core::JxpPeer& peer : sim.peers()) {
      for (double ms : peer.meeting_cpu_millis()) merge_ms_total += ms;
      merges += peer.meeting_cpu_millis().size();
    }
    const core::AccuracyPoint accuracy = sim.Evaluate();
    // One fill, two destinations: the stdout result line and (when a
    // --metrics_out sink is installed) a "bench_result" trace event.
    const auto fill = [&](obs::JsonWriter& writer) {
      writer.Field("bench", "meeting_throughput")
          .Field("threads", threads)
          .Field("meetings", sim.meetings_done())
          .Field("wall_seconds", wall_s)
          .Field("meetings_per_sec",
                 wall_s > 0 ? static_cast<double>(sim.meetings_done()) / wall_s : 0.0)
          .Field("cpu_millis", cpu_ms)
          .Field("merge_cpu_millis_mean",
                 merges > 0 ? merge_ms_total / static_cast<double>(merges) : 0.0)
          .Field("footrule", accuracy.footrule);
    };
    obs::JsonWriter line;
    fill(line);
    std::printf("%s\n", line.TakeLine().c_str());
    std::fflush(stdout);
    obs::EmitEvent("bench_result", fill);
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
