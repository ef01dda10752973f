#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "proptest.h"
#include "qp/serving.h"

namespace jxp {
namespace qp {
namespace {

/// One randomized caching scenario: a corpus, a peer partition, and a query
/// trace with in-trace and cross-batch repeats (the situation the result and
/// threshold caches exist for).
struct CachingCase {
  uint64_t seed = 0;
  size_t num_nodes = 500;
  size_t num_peers = 2;
  size_t num_distinct = 5;
  size_t trace_len = 12;
  size_t k = 10;
  double prior_weight = 0;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " nodes=" << num_nodes << " peers=" << num_peers
       << " distinct=" << num_distinct << " trace=" << trace_len << " k=" << k
       << " w=" << prior_weight;
    return os.str();
  }

  std::vector<CachingCase> Shrink() const {
    std::vector<CachingCase> out;
    if (num_nodes > 150) {
      CachingCase c = *this;
      c.num_nodes /= 2;
      out.push_back(c);
    }
    if (num_peers > 1) {
      CachingCase c = *this;
      c.num_peers = 1;
      out.push_back(c);
    }
    if (trace_len > num_distinct) {
      CachingCase c = *this;
      c.trace_len = c.num_distinct;
      out.push_back(c);
    }
    if (prior_weight != 0) {
      CachingCase c = *this;
      c.prior_weight = 0;
      out.push_back(c);
    }
    return out;
  }
};

CachingCase MakeCase(uint64_t seed) {
  Random rng(seed);
  CachingCase c;
  c.seed = seed;
  c.num_nodes = 200 + static_cast<size_t>(rng.NextBounded(500));
  c.num_peers = 1 + static_cast<size_t>(rng.NextBounded(3));
  c.num_distinct = 3 + static_cast<size_t>(rng.NextBounded(4));
  c.trace_len = c.num_distinct + static_cast<size_t>(rng.NextBounded(10));
  c.k = 1 + static_cast<size_t>(rng.NextBounded(15));
  c.prior_weight = rng.NextBounded(2) == 0 ? 0.0 : 0.4;
  return c;
}

std::optional<std::string> CompareBatches(const std::vector<ServedResult>& a,
                                          const std::vector<ServedResult>& b,
                                          const std::string& label) {
  if (a.size() != b.size()) return label + ": batch size mismatch";
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

/// Caches and threshold priming must not change a single bit of any served
/// result — across thread counts and across a trace split
/// into two batches (the second reruns against warm caches).
TEST(QpCachingProperty, CachedPrimedServingIsBitIdenticalToCold) {
  proptest::ForAll<CachingCase>(
      /*default_seed=*/9260612, /*default_cases=*/8, MakeCase,
      [](const CachingCase& c) -> proptest::CheckResult {
        Random rng(c.seed ^ 0x9e3779b97f4a7c15ull);
        graph::WebGraphParams params;
        params.num_nodes = c.num_nodes;
        params.num_categories = 3;
        const graph::CategorizedGraph collection = graph::GenerateWebGraph(params, rng);
        search::CorpusOptions coptions;
        coptions.vocabulary_size = 2500;
        coptions.category_vocab_size = 350;
        const search::Corpus corpus =
            search::Corpus::Generate(collection, coptions, c.seed + 1);
        std::vector<std::unique_ptr<search::PeerIndex>> indexes;
        for (size_t peer = 0; peer < c.num_peers; ++peer) {
          auto index = std::make_unique<search::PeerIndex>(static_cast<p2p::PeerId>(peer));
          for (graph::PageId p = peer; p < c.num_nodes; p += c.num_peers) {
            index->AddDocument(corpus.DocumentFor(p));
          }
          indexes.push_back(std::move(index));
        }
        std::unordered_map<graph::PageId, double> jxp_scores;
        Random prng(c.seed + 3);
        for (graph::PageId p = 0; p < c.num_nodes; ++p) {
          jxp_scores[p] = prng.NextDouble() / static_cast<double>(c.num_nodes);
        }

        // Distinct query pool, then a trace that revisits it with repeats.
        Random qrng(c.seed + 2);
        std::vector<ServedQuery> pool;
        for (size_t i = 0; i < c.num_distinct; ++i) {
          ServedQuery query;
          query.terms = corpus.SampleQueryTerms(static_cast<graph::CategoryId>(i % 3),
                                                1 + i % 3, qrng);
          pool.push_back(std::move(query));
        }
        std::vector<ServedQuery> trace;
        for (size_t i = 0; i < c.trace_len; ++i) {
          trace.push_back(pool[qrng.NextBounded(pool.size())]);
        }
        const size_t split = trace.size() / 2;
        const std::span<const ServedQuery> first(trace.data(), split);
        const std::span<const ServedQuery> second(trace.data() + split,
                                                  trace.size() - split);

        const auto serve = [&](ProcessorKind kind, size_t threads, bool caches,
                               bool priming) {
          ServingOptions options;
          options.processor = kind;
          options.k = c.k;
          options.num_threads = threads;
          options.threshold_priming = priming;
          if (caches) {
            options.result_cache_capacity = 32;
            options.threshold_cache_capacity = 32;
          }
          QueryServer server(&corpus, options);
          CompressedIndexOptions copts;
          copts.prior_weight = c.prior_weight;
          for (const auto& index : indexes) {
            server.AddPeer(index.get(),
                           c.prior_weight == 0.0 ? decltype(jxp_scores){} : jxp_scores,
                           copts);
          }
          // Two batches against ONE server: the second runs with warm caches
          // and cache-derived primed thresholds.
          std::vector<ServedResult> all = server.ServeBatch(first);
          std::vector<ServedResult> rest = server.ServeBatch(second);
          all.insert(all.end(), std::make_move_iterator(rest.begin()),
                     std::make_move_iterator(rest.end()));
          return all;
        };

        const auto oracle = serve(ProcessorKind::kExhaustive, 1, /*caches=*/false,
                                  /*priming=*/false);
        for (const size_t threads : {size_t{1}, size_t{4}}) {
          for (const bool caches : {false, true}) {
            std::ostringstream label;
            label << "maxscore threads=" << threads << " caches=" << caches;
            const auto arm =
                serve(ProcessorKind::kMaxScore, threads, caches, /*priming=*/true);
            if (auto mismatch = CompareBatches(oracle, arm, label.str())) {
              return *mismatch;
            }
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace qp
}  // namespace jxp
