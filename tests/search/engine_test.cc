#include "search/engine.h"

#include <gtest/gtest.h>

#include "metrics/ranking.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace search {
namespace {

struct EngineFixture {
  EngineFixture() {
    Random rng(21);
    graph::WebGraphParams params;
    params.num_nodes = 800;
    params.num_categories = 4;
    params.mean_out_degree = 6;
    collection = GenerateWebGraph(params, rng);

    CorpusOptions corpus_options;
    corpus_options.vocabulary_size = 5000;
    corpus_options.category_vocab_size = 600;
    corpus = Corpus::Generate(collection, corpus_options, 22);

    pagerank_result = ComputePageRank(collection.graph, pagerank::PageRankOptions());
    // The "JXP scores" for engine tests: the true PR (the converged case).
    for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
      jxp_scores[p] = pagerank_result.scores[p];
    }
  }

  /// Partitions pages across `n` peers by page id stripes.
  void AddStripedPeers(MinervaEngine& engine, size_t n) const {
    for (size_t peer = 0; peer < n; ++peer) {
      std::vector<graph::PageId> pages;
      for (graph::PageId p = static_cast<graph::PageId>(peer);
           p < collection.graph.NumNodes(); p += n) {
        pages.push_back(p);
      }
      engine.AddPeer(static_cast<p2p::PeerId>(peer), pages);
    }
  }

  graph::CategorizedGraph collection;
  Corpus corpus;
  pagerank::PageRankResult pagerank_result;
  std::unordered_map<graph::PageId, double> jxp_scores;
};

TEST(PeerIndexTest, PostingsAndDf) {
  Document doc;
  doc.page = 3;
  doc.terms = {{10, 2}, {20, 1}};
  doc.length = 3;
  PeerIndex index(0);
  index.AddDocument(doc);
  EXPECT_EQ(index.NumDocuments(), 1u);
  ASSERT_NE(index.PostingsFor(10), nullptr);
  EXPECT_EQ((*index.PostingsFor(10))[0].page, 3u);
  EXPECT_EQ((*index.PostingsFor(10))[0].tf, 2u);
  EXPECT_EQ(index.PostingsFor(99), nullptr);
  EXPECT_EQ(index.LocalDocumentFrequency(20), 1u);
  EXPECT_EQ(index.LocalDocumentFrequency(99), 0u);
}

TEST(MinervaEngineTest, RetrievesOnTopicPages) {
  EngineFixture fx;
  SearchOptions options;
  options.peers_to_route = 4;
  MinervaEngine engine(&fx.corpus, options);
  fx.AddStripedPeers(engine, 8);

  Random rng(5);
  const auto query = fx.corpus.SampleQueryTerms(2, 3, rng);
  const auto results = engine.ExecuteQuery(query, fx.jxp_scores,
                                           RoutingPolicy::kDocumentFrequency);
  ASSERT_FALSE(results.empty());
  // The bulk of the top results are on the query's topic.
  size_t on_topic = 0;
  const size_t top = std::min<size_t>(10, results.size());
  for (size_t i = 0; i < top; ++i) {
    if (fx.collection.category[results[i].page] == 2) ++on_topic;
  }
  EXPECT_GE(on_topic, top / 2);
}

TEST(MinervaEngineTest, RoutingPrefersPeersWithMatchingContent) {
  EngineFixture fx;
  SearchOptions options;
  MinervaEngine engine(&fx.corpus, options);
  // Peer 0: only category-0 pages; peer 1: only category-1 pages.
  std::vector<graph::PageId> cat0;
  std::vector<graph::PageId> cat1;
  for (graph::PageId p = 0; p < fx.collection.graph.NumNodes(); ++p) {
    if (fx.collection.category[p] == 0) cat0.push_back(p);
    if (fx.collection.category[p] == 1) cat1.push_back(p);
  }
  engine.AddPeer(0, cat0);
  engine.AddPeer(1, cat1);
  Random rng(6);
  const auto query = fx.corpus.SampleQueryTerms(0, 3, rng);
  const auto routed =
      engine.RoutePeers(query, fx.jxp_scores, RoutingPolicy::kDocumentFrequency);
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0], 0u);
  const auto routed_jxp =
      engine.RoutePeers(query, fx.jxp_scores, RoutingPolicy::kJxpAuthority);
  EXPECT_EQ(routed_jxp[0], 0u);
}

TEST(MinervaEngineTest, FusionPromotesAuthoritativePages) {
  EngineFixture fx;
  SearchOptions options;
  options.peers_to_route = 8;
  options.jxp_weight = 0.4;
  MinervaEngine engine(&fx.corpus, options);
  fx.AddStripedPeers(engine, 8);

  Random rng(7);
  double tfidf_precision_sum = 0;
  double fused_precision_sum = 0;
  const int kQueries = 8;
  for (int q = 0; q < kQueries; ++q) {
    const graph::CategoryId category = q % fx.collection.num_categories;
    const auto query = fx.corpus.SampleQueryTerms(category, 3, rng);
    const auto relevant =
        RelevantPages(fx.collection, fx.pagerank_result.scores, category, 0.05);
    auto results =
        engine.ExecuteQuery(query, fx.jxp_scores, RoutingPolicy::kDocumentFrequency);
    const auto by_tfidf = RankByTfIdf(results, 10);
    const auto by_fused = RankByFused(results, 10);
    tfidf_precision_sum += metrics::PrecisionAtK(by_tfidf, relevant, 10);
    fused_precision_sum += metrics::PrecisionAtK(by_fused, relevant, 10);
  }
  // The paper's Table 2 effect: fusing authority into the ranking lifts
  // precision on average.
  EXPECT_GT(fused_precision_sum, tfidf_precision_sum);
}

TEST(MinervaEngineTest, TfIdfScoreBasics) {
  EngineFixture fx;
  MinervaEngine engine(&fx.corpus, SearchOptions());
  const Document& doc = fx.corpus.DocumentFor(0);
  ASSERT_FALSE(doc.terms.empty());
  const TermId present = doc.terms[0].first;
  const std::vector<TermId> query = {present};
  EXPECT_GT(engine.TfIdfScore(query, doc), 0.0);
  const std::vector<TermId> absent = {static_cast<TermId>(4999)};
  EXPECT_DOUBLE_EQ(engine.TfIdfScore(absent, doc), 0.0);
}

TEST(MinervaEngineTest, EmptyQueryYieldsNoResults) {
  EngineFixture fx;
  MinervaEngine engine(&fx.corpus, SearchOptions());
  fx.AddStripedPeers(engine, 4);
  const std::vector<TermId> query;
  EXPECT_TRUE(engine.ExecuteQuery(query, fx.jxp_scores,
                                  RoutingPolicy::kDocumentFrequency)
                  .empty());
}

}  // namespace
}  // namespace search
}  // namespace jxp
