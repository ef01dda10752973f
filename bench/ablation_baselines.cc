// Baseline comparison: JXP vs the disjoint-partition distributed-PageRank
// family (ServerRank-style, Section 2.2) vs purely local scoring. The
// disjoint approaches need a clean partition — here they get one (pages
// assigned uniquely by category stripes), while JXP runs on overlapping
// autonomous crawls of the same collection and still converges closer to
// the true PageRank.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/baselines.h"
#include "metrics/error.h"

namespace jxp {
namespace bench {

namespace {

core::AccuracyPoint EvaluateDense(const std::vector<double>& approx,
                                  std::span<const metrics::ScoredItem> global_top_k) {
  std::unordered_map<uint32_t, double> map;
  map.reserve(approx.size() * 2);
  for (uint32_t p = 0; p < approx.size(); ++p) map[p] = approx[p];
  return core::EvaluateAccuracy(map, global_top_k);
}

}  // namespace

void Run(int argc, char** argv) {
  const BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("amazon", config);
  PrintHeader("Baselines: JXP vs ServerRank-style vs local-only (Amazon)", collection,
              config);

  // Disjoint site assignment for the baselines: peers_per_category stripes
  // within each category (the favorable case for ServerRank).
  const uint32_t num_sites = static_cast<uint32_t>(
      config.peers_per_category * collection.data.num_categories);
  std::vector<uint32_t> site_of(collection.data.graph.NumNodes());
  std::vector<uint32_t> category_counter(collection.data.num_categories, 0);
  for (graph::PageId p = 0; p < collection.data.graph.NumNodes(); ++p) {
    const uint32_t category = collection.data.category[p];
    site_of[p] = static_cast<uint32_t>(category * config.peers_per_category +
                                       category_counter[category] % config.peers_per_category);
    category_counter[category]++;
  }

  pagerank::PageRankOptions pr_options;
  pr_options.tolerance = 1e-12;

  // JXP on overlapping crawls.
  core::SimulationConfig sim_config;
  sim_config.jxp = BenchJxpOptions(config);
  sim_config.seed = config.seed;
  sim_config.eval_top_k = config.top_k;
  core::JxpSimulation sim(collection.data.graph,
                          PaperPartition(collection, config, config.seed), sim_config);

  const core::AccuracyPoint local_only = EvaluateDense(
      core::LocalOnlyScores(collection.data.graph, site_of, num_sites, pr_options),
      sim.global_top_k());
  const core::AccuracyPoint serverrank = EvaluateDense(
      core::ServerRankScores(collection.data.graph, site_of, num_sites, pr_options),
      sim.global_top_k());
  const core::AccuracyPoint jxp_initial = sim.Evaluate();
  sim.RunMeetings(config.meetings);
  const core::AccuracyPoint jxp_final = sim.Evaluate();

  std::printf("method\tfootrule\tlinear_error\n");
  std::printf("local_only\t%.6f\t%.8g\n", local_only.footrule, local_only.linear_error);
  std::printf("serverrank\t%.6f\t%.8g\n", serverrank.footrule, serverrank.linear_error);
  std::printf("jxp_0_meetings\t%.6f\t%.8g\n", jxp_initial.footrule,
              jxp_initial.linear_error);
  std::printf("jxp_%zu_meetings\t%.6f\t%.8g\n", sim.meetings_done(), jxp_final.footrule,
              jxp_final.linear_error);
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
