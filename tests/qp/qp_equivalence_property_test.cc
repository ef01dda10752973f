#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "proptest.h"
#include "qp/serving.h"
#include "search/engine.h"

namespace jxp {
namespace qp {
namespace {

/// One randomized equivalence scenario: a corpus over a generated web graph,
/// a peer partition with replication, and a batch of topical queries.
struct EquivalenceCase {
  uint64_t seed = 0;
  size_t num_nodes = 600;
  size_t num_peers = 3;
  size_t num_queries = 6;
  size_t k = 10;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " nodes=" << num_nodes << " peers=" << num_peers
       << " queries=" << num_queries << " k=" << k;
    return os.str();
  }

  std::vector<EquivalenceCase> Shrink() const {
    std::vector<EquivalenceCase> out;
    if (num_nodes > 150) {
      EquivalenceCase c = *this;
      c.num_nodes /= 2;
      out.push_back(c);
    }
    if (num_peers > 1) {
      EquivalenceCase c = *this;
      c.num_peers = 1;
      out.push_back(c);
    }
    if (num_queries > 1) {
      EquivalenceCase c = *this;
      c.num_queries = 1;
      out.push_back(c);
    }
    return out;
  }
};

EquivalenceCase MakeCase(uint64_t seed) {
  Random rng(seed);
  EquivalenceCase c;
  c.seed = seed;
  c.num_nodes = 200 + static_cast<size_t>(rng.NextBounded(600));
  c.num_peers = 1 + static_cast<size_t>(rng.NextBounded(4));
  c.num_queries = 3 + static_cast<size_t>(rng.NextBounded(5));
  c.k = 1 + static_cast<size_t>(rng.NextBounded(20));
  return c;
}

struct BuiltCase {
  graph::CategorizedGraph collection;
  search::Corpus corpus;
  std::vector<std::vector<graph::PageId>> partitions;
  std::vector<std::unique_ptr<search::PeerIndex>> indexes;
  std::vector<ServedQuery> queries;
};

BuiltCase BuildCase(const EquivalenceCase& c) {
  BuiltCase built;
  Random rng(c.seed ^ 0x9e3779b97f4a7c15ull);
  graph::WebGraphParams params;
  params.num_nodes = c.num_nodes;
  params.num_categories = 3;
  built.collection = graph::GenerateWebGraph(params, rng);
  search::CorpusOptions coptions;
  coptions.vocabulary_size = 2500;
  coptions.category_vocab_size = 350;
  built.corpus = search::Corpus::Generate(built.collection, coptions, c.seed + 1);
  // Round-robin partition plus a replicated band at the front of each peer
  // (cross-peer duplicates must dedup identically everywhere).
  built.partitions.resize(c.num_peers);
  for (graph::PageId p = 0; p < c.num_nodes; ++p) {
    built.partitions[p % c.num_peers].push_back(p);
    if (p < 20 && c.num_peers > 1) {
      built.partitions[(p + 1) % c.num_peers].push_back(p);
    }
  }
  for (size_t peer = 0; peer < c.num_peers; ++peer) {
    auto index = std::make_unique<search::PeerIndex>(static_cast<p2p::PeerId>(peer));
    for (graph::PageId p : built.partitions[peer]) {
      index->AddDocument(built.corpus.DocumentFor(p));
    }
    built.indexes.push_back(std::move(index));
  }
  Random qrng(c.seed + 2);
  for (size_t i = 0; i < c.num_queries; ++i) {
    ServedQuery query;
    query.terms = built.corpus.SampleQueryTerms(
        static_cast<graph::CategoryId>(i % 3), 2 + i % 3, qrng);
    built.queries.push_back(std::move(query));
  }
  return built;
}

std::optional<std::string> CompareBatches(const std::vector<ServedResult>& a,
                                          const std::vector<ServedResult>& b,
                                          const char* label) {
  if (a.size() != b.size()) return std::string(label) + ": batch size mismatch";
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].results.size() != b[q].results.size()) {
      std::ostringstream os;
      os << label << ": query " << q << " size " << a[q].results.size() << " vs "
         << b[q].results.size();
      return os.str();
    }
    for (size_t i = 0; i < a[q].results.size(); ++i) {
      if (a[q].results[i].first != b[q].results[i].first ||
          a[q].results[i].second != b[q].results[i].second) {
        std::ostringstream os;
        os << label << ": query " << q << " rank " << i << " ("
           << a[q].results[i].first << ", " << a[q].results[i].second << ") vs ("
           << b[q].results[i].first << ", " << b[q].results[i].second << ")";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

/// The query path's equivalence: MaxScore and the exhaustive oracle over
/// compressed lists return identical pages AND scores at 1 and 4 threads,
/// both on plain tf*idf and on serve_zipf's fused layout, and
/// MinervaEngine's merged candidates carry exactly the tf*idf the oracle
/// assigns on the peers the query is routed to.
TEST(QpEquivalenceProperty, AllPathsReturnIdenticalTopK) {
  proptest::ForAll<EquivalenceCase>(
      /*default_seed=*/9260612, /*default_cases=*/10, MakeCase,
      [](const EquivalenceCase& c) -> proptest::CheckResult {
        const BuiltCase built = BuildCase(c);
        // The fused arm's prior: uniform in [0, 1), near the size of one
        // term's impact, so it reorders results and MaxScore's bounds must
        // carry it (a PageRank-sized prior would barely register).
        std::unordered_map<graph::PageId, double> prior;
        Random prior_rng(c.seed + 4);
        for (graph::PageId p = 0; p < c.num_nodes; ++p) prior[p] = prior_rng.NextDouble();

        // Serving arms at 1 and 4 threads, per layout: plain tf*idf with
        // the default blocks, and the fused score (w = 0.4, the random
        // prior table, blocks of 16) that makes MaxScore consult PriorOf.
        struct Layout {
          const char* label;
          double prior_weight;
          size_t block_size;
          const std::unordered_map<graph::PageId, double>* prior;
        };
        const std::unordered_map<graph::PageId, double> no_prior;
        for (const Layout layout : {Layout{"plain serving arm", 0.0, 128, &no_prior},
                                    Layout{"fused serving arm", 0.4, 16, &prior}}) {
          CompressedIndexOptions copts;
          copts.prior_weight = layout.prior_weight;
          copts.block_size = layout.block_size;
          std::vector<std::vector<ServedResult>> arms;
          for (const ProcessorKind kind :
               {ProcessorKind::kExhaustive, ProcessorKind::kMaxScore}) {
            for (const size_t threads : {size_t{1}, size_t{4}}) {
              ServingOptions options;
              options.processor = kind;
              options.k = c.k;
              options.num_threads = threads;
              QueryServer server(&built.corpus, options);
              for (const auto& index : built.indexes) {
                server.AddPeer(index.get(), *layout.prior, copts);
              }
              arms.push_back(server.ServeBatch(built.queries));
            }
          }
          for (size_t arm = 1; arm < arms.size(); ++arm) {
            if (auto mismatch = CompareBatches(arms[0], arms[arm], layout.label)) {
              return *mismatch;
            }
          }
        }

        // Engine against the oracle: the merged pages are the union of
        // ExhaustiveTopK(results_per_peer) over the routed peers, each with
        // the oracle's tf*idf bit for bit.
        search::SearchOptions options;
        options.jxp_weight = 0.4;
        search::MinervaEngine engine(&built.corpus, options);
        std::vector<CompressedPeerIndex> frozen;
        for (size_t peer = 0; peer < built.indexes.size(); ++peer) {
          engine.AddPeer(static_cast<p2p::PeerId>(peer), built.partitions[peer]);
          frozen.push_back(CompressedPeerIndex::Freeze(
              *built.indexes[peer], built.corpus, {}, CompressedIndexOptions{}));
        }
        std::unordered_map<graph::PageId, double> jxp_scores;
        Random prng(c.seed + 3);
        for (graph::PageId p = 0; p < c.num_nodes; ++p) {
          jxp_scores[p] = prng.NextDouble() / static_cast<double>(c.num_nodes);
        }
        for (const ServedQuery& query : built.queries) {
          const auto routed = engine.RoutePeers(query.terms, jxp_scores,
                                                search::RoutingPolicy::kJxpAuthority);
          std::unordered_map<graph::PageId, double> want;
          const size_t fanout = std::min(options.peers_to_route, routed.size());
          for (size_t r = 0; r < fanout; ++r) {
            const TopKList local = ExhaustiveTopK(frozen[routed[r]], query.terms,
                                                  options.results_per_peer, nullptr);
            for (const auto& [page, tfidf] : local) want[page] = tfidf;
          }
          const auto got = engine.ExecuteQuery(query.terms, jxp_scores,
                                               search::RoutingPolicy::kJxpAuthority);
          if (got.size() != want.size()) {
            std::ostringstream os;
            os << "engine: " << got.size() << " results vs " << want.size()
               << " from the oracle";
            return os.str();
          }
          for (const search::SearchResult& result : got) {
            const auto it = want.find(result.page);
            if (it == want.end() || it->second != result.tfidf) {
              std::ostringstream os;
              os << "engine: page " << result.page << " tfidf " << result.tfidf
                 << (it == want.end() ? " is not in the oracle's union"
                                      : " differs from the oracle");
              return os.str();
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace qp
}  // namespace jxp
