// Table 2: precision@10 of 15 typical Web queries under (a) standard tf*idf
// ranking and (b) the weighted combination 0.6*tf*idf + 0.4*JXP, in the
// Section 6.3 Minerva setup: 40 peers = 10 categories x 4 fragments, each
// peer hosting 3 of the 4 fragments of its topic. Paper shape: the combined
// ranking lifts average precision (40% -> 57% in the paper).
//
// The paper's 15 manually assessed queries are emulated by 15 synthetic
// topical queries (the original query strings label the rows); relevance
// ground truth is programmatic — see search::RelevantPages.

#include <cstdio>

#include "bench/bench_util.h"
#include "metrics/ranking.h"
#include "obs/trace.h"
#include "search/engine.h"

namespace jxp {
namespace bench {

namespace {

constexpr const char* kQueryNames[15] = {
    "affirmative action", "amusement parks", "armstrong",      "basketball",
    "blues",              "censorship",      "cheese",         "iraq war",
    "jordan",             "moon landing",    "movies",         "roswell",
    "search engines",     "shakespeare",     "table tennis"};

}  // namespace

void Run(int argc, char** argv) {
  BenchConfig config = BenchConfig::FromFlags(argc, argv);
  const datasets::Collection collection = MakeCollection("webcrawl", config);
  PrintHeader("Table 2: precision@10, tf*idf vs 0.6*tf*idf + 0.4*JXP", collection,
              config);

  // Section 6.3 peer layout.
  Random rng(config.seed);
  const auto fragments = crawler::FragmentSplitPartition(collection.data, 4, 3, rng);

  // Converge JXP scores with the optimized algorithm.
  core::SimulationConfig sim_config;
  sim_config.jxp = BenchJxpOptions(config);
  sim_config.strategy = core::SelectionStrategy::kPreMeetings;
  sim_config.seed = config.seed;
  sim_config.eval_top_k = 200;
  core::JxpSimulation sim(collection.data.graph, fragments, sim_config);
  sim.RunMeetings(config.meetings);
  const auto jxp_scores = sim.GlobalJxpScores();
  std::printf("# after %zu meetings: footrule=%.3f\n", sim.meetings_done(),
              sim.Evaluate().footrule);

  // Corpus and engine.
  search::CorpusOptions corpus_options;
  const search::Corpus corpus =
      search::Corpus::Generate(collection.data, corpus_options, config.seed ^ 0xc0de);
  search::SearchOptions search_options;
  search_options.peers_to_route = 6;
  search_options.jxp_weight = 0.4;
  search::MinervaEngine engine(&corpus, search_options);
  for (size_t p = 0; p < fragments.size(); ++p) {
    engine.AddPeer(static_cast<p2p::PeerId>(p), fragments[p]);
  }

  std::printf("query\ttfidf_p@10\tcombined_p@10\n");
  double tfidf_sum = 0;
  double combined_sum = 0;
  for (int q = 0; q < 15; ++q) {
    const graph::CategoryId category =
        static_cast<graph::CategoryId>(q % collection.data.num_categories);
    const auto query = corpus.SampleQueryTerms(category, 2 + q % 2, rng);
    const auto relevant =
        search::RelevantPages(collection.data, sim.global_scores(), category, 0.05);
    const auto results =
        engine.ExecuteQuery(query, jxp_scores, search::RoutingPolicy::kDocumentFrequency);
    const double p_tfidf =
        metrics::PrecisionAtK(search::RankByTfIdf(results, 10), relevant, 10);
    const double p_combined =
        metrics::PrecisionAtK(search::RankByFused(results, 10), relevant, 10);
    tfidf_sum += p_tfidf;
    combined_sum += p_combined;
    std::printf("%s\t%.0f%%\t%.0f%%\n", kQueryNames[q], p_tfidf * 100, p_combined * 100);
    // Structured twin of the printed row, so --metrics_out captures this
    // bench like the throughput benches.
    obs::EmitEvent("bench_result", [&](obs::JsonWriter& w) {
      w.Field("bench", "table2_search_precision")
          .Field("row", "query")
          .Field("query", kQueryNames[q])
          .Field("category", static_cast<uint64_t>(category))
          .Field("tfidf_p10", p_tfidf)
          .Field("combined_p10", p_combined);
    });
  }
  std::printf("Average\t%.0f%%\t%.0f%%\n", tfidf_sum / 15 * 100, combined_sum / 15 * 100);
  obs::EmitEvent("bench_result", [&](obs::JsonWriter& w) {
    w.Field("bench", "table2_search_precision")
        .Field("row", "average")
        .Field("tfidf_p10", tfidf_sum / 15)
        .Field("combined_p10", combined_sum / 15);
  });
}

}  // namespace bench
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::bench::Run(argc, argv);
  return 0;
}
