// Figure 8: combining score lists by averaging (baseline, Eq. 2) vs taking
// the bigger score (Section 4.2, Eq. 3), both collections, light-weight
// merging. Paper shape: take-the-bigger-score converges faster.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  for (const char* name : {"amazon", "webcrawl"}) {
    const datasets::Collection collection = MakeCollection(name, config);
    PrintHeader(std::string("Figure 8: score-combination methods (") + name +
                    ", top-1000)",
                collection, config);
    std::printf("series\tmeetings\tfootrule\tlinear_error\n");
    for (const core::CombineMode mode :
         {core::CombineMode::kAverage, core::CombineMode::kTakeMax}) {
      core::SimulationConfig sim_config;
      sim_config.jxp = BenchJxpOptions(config);
      sim_config.jxp.merge_mode = core::MergeMode::kLightWeight;
      sim_config.jxp.combine_mode = mode;
      sim_config.seed = config.seed;
      sim_config.eval_top_k = config.top_k;
      core::JxpSimulation sim(collection.data.graph,
                              PaperPartition(collection, config, config.seed),
                              sim_config);
      RunConvergenceSeries(
          sim, config,
          mode == core::CombineMode::kAverage ? "averaging" : "taking_bigger_score");
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
