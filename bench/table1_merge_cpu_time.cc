// Table 1: CPU time (milliseconds) per merge procedure — full merging vs
// light-weight merging — for the three biggest and three smallest peers of
// each collection. Stdout lists the peers; the timing table goes to stderr. Paper shape: light-weight is consistently cheaper, and
// dramatically so for small peers; absolute numbers differ from the paper's
// 2005 hardware.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace jxp {
namespace bench {

struct PeerCost {
  size_t pages = 0;
  double full_ms = 0;
  double light_ms = 0;
};

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  // CPU timing needs fewer meetings than the accuracy figures.
  if (config.meetings > 600) config.meetings = 600;

  for (const char* name : {"amazon", "webcrawl"}) {
    const datasets::Collection collection = MakeCollection(name, config);
    PrintHeader(std::string("Table 1: merge CPU time per meeting (") + name + ")",
                collection, config);
    const auto fragments = PaperPartition(collection, config, config.seed);

    std::vector<PeerCost> costs(fragments.size());
    for (const core::MergeMode mode :
         {core::MergeMode::kFullMerge, core::MergeMode::kLightWeight}) {
      core::SimulationConfig sim_config;
      sim_config.jxp = BenchJxpOptions(config);
      sim_config.jxp.merge_mode = mode;
      sim_config.seed = config.seed;
      sim_config.eval_top_k = 100;
      core::JxpSimulation sim(collection.data.graph, fragments, sim_config);
      sim.RunMeetings(config.meetings);
      for (size_t p = 0; p < fragments.size(); ++p) {
        const auto& millis = sim.peers()[p].meeting_cpu_millis();
        double mean = 0;
        for (double ms : millis) mean += ms;
        if (!millis.empty()) mean /= static_cast<double>(millis.size());
        costs[p].pages = sim.peers()[p].fragment().NumLocalPages();
        (mode == core::MergeMode::kFullMerge ? costs[p].full_ms : costs[p].light_ms) =
            mean;
      }
    }
    // Sort by fragment size, descending, as the paper does.
    std::sort(costs.begin(), costs.end(),
              [](const PeerCost& a, const PeerCost& b) { return a.pages > b.pages; });
    // The CPU-time columns vary from run to run, so they go to stderr: the
    // deterministic rest of stdout is a golden (bench/goldens/).
    std::printf("peer\tlocal_pages\n");
    std::fprintf(stderr, "# Table 1 (%s)\n", name);
    std::fprintf(stderr, "peer\tlocal_pages\tfull_merging_ms\tlightweight_ms\tspeedup\n");
    const size_t n = costs.size();
    auto print = [&](size_t rank) {
      const PeerCost& c = costs[rank];
      std::printf("%zu\t%zu\n", rank + 1, c.pages);
      std::fprintf(stderr, "%zu\t%zu\t%.3f\t%.3f\t%.2fx\n", rank + 1, c.pages, c.full_ms,
                   c.light_ms, c.light_ms > 0 ? c.full_ms / c.light_ms : 0.0);
    };
    for (size_t r = 0; r < std::min<size_t>(3, n); ++r) print(r);
    if (n > 6) {
      std::printf("...\n");
      std::fprintf(stderr, "...\n");
    }
    for (size_t r = n >= 3 ? n - 3 : 0; r < n; ++r) print(r);
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
