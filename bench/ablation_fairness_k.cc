// Ablation A3: the fairness knob of the biased peer-selection strategy.
// Section 5.3 requires every k-th selection to be uniformly random for the
// convergence proof to apply; this bench sweeps k and reports the accuracy
// reached after a fixed meeting budget. Too small a k wastes the bias; a
// large k relies on the random fallback (no candidate queued) to reach the
// peers no candidate list names.

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Ablation A3: fairness parameter k of the pre-meetings strategy (Amazon)",
              collection, config);
  std::printf("random_every_k\tfootrule\tlinear_error\n");
  for (const size_t k : {2u, 5u, 10u, 25u, 100u}) {
    core::SimulationConfig sim_config;
    sim_config.jxp = BenchJxpOptions(config);
    sim_config.strategy = core::SelectionStrategy::kPreMeetings;
    sim_config.pre_meeting.random_every_k = k;
    sim_config.seed = config.seed;
    sim_config.eval_top_k = config.top_k;
    core::JxpSimulation sim(collection.data.graph,
                            PaperPartition(collection, config, config.seed), sim_config);
    sim.RunMeetings(config.meetings);
    const core::AccuracyPoint point = sim.Evaluate();
    std::printf("%zu\t%.6f\t%.8g\n", k, point.footrule, point.linear_error);
    std::fflush(stdout);
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
