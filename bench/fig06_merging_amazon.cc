// Figure 6: full merging vs light-weight merging, Amazon collection.
// Paper shape: the two curves nearly coincide — skipping the graph merge
// does not hurt accuracy.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Figure 6: full vs light-weight merging (Amazon, top-1000)", collection,
              config);
  std::printf("series\tmeetings\tfootrule\tlinear_error\n");
  for (const core::MergeMode mode :
       {core::MergeMode::kFullMerge, core::MergeMode::kLightWeight}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.jxp.merge_mode = mode;
    sim_config.jxp.combine_mode = core::CombineMode::kAverage;
    sim_config.seed = config.seed;
    sim_config.eval_top_k = config.top_k;
    core::JxpSimulation sim(collection.data.graph,
                            PaperPartition(collection, config, config.seed), sim_config);
    RunConvergenceSeries(
        sim, config,
        mode == core::MergeMode::kFullMerge ? "with_merging" : "without_merging");
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
