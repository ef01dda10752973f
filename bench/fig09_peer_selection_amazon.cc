// Figure 9: peer-selection strategies — pre-meetings (Section 4.3) vs
// uniformly random — on the Amazon collection, top-10000. Paper shape: the
// curves start together; once caches fill, pre-meetings reaches a given
// footrule with distinctly fewer meetings (1,250 vs 1,770 for 0.2 in the
// paper).

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  // The paper compares the top-10000 for this figure; scale the default k
  // with the collection (10000 at scale 1).
  if (config.top_k == 1000) {
    config.top_k = std::max<size_t>(200, static_cast<size_t>(10000 * config.amazon_scale));
  }
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Figure 9: peer-selection strategies (Amazon, top-10000-scaled)",
              collection, config);
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
