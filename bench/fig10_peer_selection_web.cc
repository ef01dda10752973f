// Figure 10: peer-selection strategies — pre-meetings vs random — on the
// Web-crawl collection, top-1000. Paper shape: pre-meetings reaches footrule
// 0.1 in ~1,650 meetings vs ~2,480 for random.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("webcrawl", config);
  PrintHeader("Figure 10: peer-selection strategies (Web crawl, top-1000)", collection,
              config);
  std::printf("series\tmeetings\tfootrule\tlinear_error\n");
  for (const core::SelectionStrategy strategy :
       {core::SelectionStrategy::kRandom, core::SelectionStrategy::kPreMeetings}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.strategy = strategy;
    sim_config.seed = config.seed;
    sim_config.eval_top_k = config.top_k;
    core::JxpSimulation sim(collection.data.graph,
                            PaperPartition(collection, config, config.seed), sim_config);
    RunConvergenceSeries(sim, config,
                         strategy == core::SelectionStrategy::kRandom
                             ? "without_pre_meetings"
                             : "with_pre_meetings");
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
