// Figure 11: per-peer message size (KBytes) at each of a peer's meetings —
// quartiles across peers — with and without the pre-meetings strategy,
// Amazon collection. Paper shape: sizes grow with meetings per peer as the
// world node accumulates knowledge; the pre-meetings variant is only
// slightly larger per message (piggybacked MIPs vectors).

#include <cstdio>

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Figure 11: message size per meeting (Amazon)", collection, config);
  std::printf("series\tmeetings_per_peer\tq1_kb\tmedian_kb\tq3_kb\tpeers\n");
  for (const core::SelectionStrategy strategy :
       {core::SelectionStrategy::kRandom, core::SelectionStrategy::kPreMeetings}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.strategy = strategy;
    sim_config.seed = config.seed;
    sim_config.eval_top_k = 100;
    core::JxpSimulation sim(collection.data.graph,
                            PaperPartition(collection, config, config.seed), sim_config);
    sim.RunMeetings(config.meetings);
    PrintMessageSizeSeries(sim,
                           strategy == core::SelectionStrategy::kRandom
                               ? "without_pre_meetings"
                               : "with_pre_meetings",
                           50);
    // Total traffic, the paper's bandwidth bottom line.
    PrintTrafficSummary(sim);
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
