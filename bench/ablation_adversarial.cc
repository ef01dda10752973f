// Extension bench (Section 7 open problem): ranking distortion under
// score-inflation attackers, with and without the honest peers' message
// defenses. Reports the footrule distortion and the worst over-estimation
// factor at honest peers as the attacker fraction grows.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  if (config.meetings > 800) config.meetings = 800;
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Extension: inflation attackers vs message defenses (Amazon)", collection,
              config);
  const auto fragments = PaperPartition(collection, config, config.seed);

  std::printf("attackers\tdefense\tfootrule\tworst_overestimation\trejected_meetings\n");
  for (const size_t attackers : {0u, 5u, 15u, 30u}) {
    for (const bool defended : {false, true}) {
      core::SimulationConfig sim_config;
      sim_config.jxp = BenchJxpOptions(config);
      sim_config.jxp.defense.enabled = defended;
      sim_config.seed = config.seed;
      sim_config.eval_top_k = config.top_k;
      sim_config.num_attackers = attackers;
      sim_config.attack.type = core::AttackOptions::Type::kScoreInflation;
      sim_config.attack.inflation_factor = 25.0;
      core::JxpSimulation sim(collection.data.graph, fragments, sim_config);
      sim.RunMeetings(config.meetings);

      double worst = 0;
      size_t rejected = 0;
      for (const core::JxpPeer& peer : sim.peers()) {
        rejected += peer.rejected_meetings();
        if (peer.id() < attackers) continue;  // Honest peers only.
        const graph::Subgraph& fragment = peer.fragment();
        for (graph::Subgraph::LocalIndex i = 0; i < fragment.NumLocalPages(); ++i) {
          worst = std::max(worst, peer.local_scores()[i] /
                                      sim.global_scores()[fragment.GlobalId(i)]);
        }
      }
      std::printf("%zu\t%s\t%.6f\t%.2f\t%zu\n", attackers, defended ? "on" : "off",
                  sim.Evaluate().footrule, worst, rejected);
      std::fflush(stdout);
    }
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
