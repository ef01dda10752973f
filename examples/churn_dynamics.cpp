// Churn and re-crawl dynamics (the paper's Section 7 future work,
// implemented here): peers leave and re-join the overlay while others
// re-crawl and change their fragments. JXP is designed to cope with such
// dynamics; this example shows the accuracy dip after a perturbation and
// the re-convergence that follows, with the paper's take-max score
// combination unchanged.
//
// Build & run:  ./build/examples/churn_dynamics

#include <cstdio>

#include "core/simulation.h"
#include "crawler/partitioner.h"
#include "datasets/collections.h"

int main() {
  using namespace jxp;  // NOLINT: example brevity.

  const datasets::Collection collection = datasets::MakeAmazonLike(0.05, 11);
  std::printf("collection: %zu pages, %zu links\n", collection.data.graph.NumNodes(),
              collection.data.graph.NumEdges());

  Random rng(12);
  crawler::PartitionOptions partition;
  partition.peers_per_category = 2;  // 20 peers.
  partition.crawler.max_pages = collection.data.graph.NumNodes() / 8;
  auto fragments = CrawlBasedPartition(collection.data, partition, rng);

  core::SimulationConfig config;
  config.seed = 13;
  config.eval_top_k = 200;
  // Background churn: occasional departures and returns.
  config.churn.leave_probability = 0.002;
  config.churn.join_probability = 0.01;
  config.churn.min_alive = 10;
  core::JxpSimulation sim(collection.data.graph, fragments, config);

  auto report = [&](const char* phase) {
    const core::AccuracyPoint point = sim.Evaluate();
    std::printf("%-28s meetings=%5zu alive=%2zu footrule=%.3f linear_error=%.2e\n",
                phase, sim.meetings_done(), sim.network().NumAlive(), point.footrule,
                point.linear_error);
  };

  report("start");
  sim.RunMeetings(500);
  report("after warm-up");

  // A burst of departures.
  for (p2p::PeerId p = 0; p < 5; ++p) sim.ForceLeave(p);
  report("5 peers departed");
  sim.RunMeetings(300);
  report("network adapted");

  // The departed peers return with *re-crawled* (different) fragments.
  // (The background churn may have brought some of them back already.)
  for (p2p::PeerId p = 0; p < 5; ++p) {
    if (!sim.network().IsAlive(p)) sim.ForceRejoin(p);
    crawler::CrawlerOptions crawl;
    crawl.max_pages = collection.data.graph.NumNodes() / 8;
    sim.ReplaceFragment(
        p, ThematicCrawl(collection.data,
                         static_cast<graph::CategoryId>(p % collection.data.num_categories),
                         crawl, rng));
  }
  report("rejoined with new crawls");
  sim.RunMeetings(700);
  report("re-converged");
  return 0;
}
