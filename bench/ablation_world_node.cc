// Ablation A2: world-node in-link weighting. The paper weighs every link
// from the world node by the learned score of the external page that owns
// it ("for a better approximation of the total authority score mass");
// this bench quantifies that choice against a strawman that spreads the
// world mass uniformly over the known in-linking pages.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Ablation A2: score-weighted vs uniform world-node links (Amazon)",
              collection, config);
  std::printf("series\tmeetings\tfootrule\tlinear_error\n");
  for (const bool uniform : {false, true}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.jxp.uniform_world_links = uniform;
    sim_config.seed = config.seed;
    sim_config.eval_top_k = config.top_k;
    core::JxpSimulation sim(collection.data.graph,
                            PaperPartition(collection, config, config.seed), sim_config);
    RunConvergenceSeries(sim, config, uniform ? "uniform_links" : "score_weighted");
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
