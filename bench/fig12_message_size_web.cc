// Figure 12: per-peer message size (KBytes) at each of a peer's meetings —
// quartiles across peers — with and without the pre-meetings strategy,
// Web-crawl collection. Same shape as Figure 11, at larger absolute sizes
// (denser graph => more links per message).

#include <cstdio>

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("webcrawl", config);
  PrintHeader("Figure 12: message size per meeting (Web crawl)", collection, config);
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
    PrintTrafficSummary(sim);
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
