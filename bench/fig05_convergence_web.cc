// Figure 5: Spearman's footrule distance and linear score error as a
// function of the number of meetings, Web-crawl collection, top-1000.
// Paper shape: footrule below 0.2 after ~1000 meetings.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("webcrawl", config);
  PrintHeader("Figure 5: JXP accuracy vs meetings (Web crawl, top-1000)", collection,
              config);

  core::SimulationConfig sim_config;
  sim_config.jxp = BenchJxpOptions(config);
  sim_config.jxp.merge_mode = core::MergeMode::kFullMerge;
  sim_config.jxp.combine_mode = core::CombineMode::kAverage;
  sim_config.seed = config.seed;
  sim_config.eval_top_k = config.top_k;
  core::JxpSimulation sim(collection.data.graph,
                          PaperPartition(collection, config, config.seed), sim_config);
  std::printf("series\tmeetings\tfootrule\tlinear_error\n");
  RunConvergenceSeries(sim, config, "jxp");
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
