// Ablation A4: sensitivity to the global-graph-size estimate N. The paper
// assumes N "is known or can be estimated with decent accuracy" and argues
// the assumption is not critical; this bench quantifies that claim by
// running JXP with N mis-estimated by up to 2x in both directions.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Ablation A4: sensitivity to the graph-size estimate N (Amazon)",
              collection, config);
  const double true_n = static_cast<double>(collection.data.graph.NumNodes());
  std::printf("estimate_over_true_N\tfootrule\tlinear_error\n");
  for (const double factor : {0.5, 0.75, 1.0, 1.5, 2.0}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.seed = config.seed;
    sim_config.eval_top_k = config.top_k;
    sim_config.global_size_estimate =
        std::max<size_t>(static_cast<size_t>(true_n * factor),
                         collection.data.graph.NumNodes() / 2 + 1);
    core::JxpSimulation sim(collection.data.graph,
                            PaperPartition(collection, config, config.seed), sim_config);
    sim.RunMeetings(config.meetings);
    const core::AccuracyPoint point = sim.Evaluate();
    std::printf("%.2f\t%.6f\t%.8g\n", factor, point.footrule, point.linear_error);
    std::fflush(stdout);
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
