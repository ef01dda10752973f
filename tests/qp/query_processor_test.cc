#include "qp/query_processor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "search/engine.h"

namespace jxp {
namespace qp {
namespace {

/// One peer holding every document, frozen both ways.
struct QpFixture {
  explicit QpFixture(double prior_weight = 0.0) {
    Random rng(61);
    graph::WebGraphParams params;
    params.num_nodes = 1500;
    params.num_categories = 4;
    collection = graph::GenerateWebGraph(params, rng);
    search::CorpusOptions coptions;
    coptions.vocabulary_size = 4000;
    coptions.category_vocab_size = 500;
    corpus = search::Corpus::Generate(collection, coptions, 62);
    index = std::make_unique<search::PeerIndex>(0);
    for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
      index->AddDocument(corpus.DocumentFor(p));
      jxp_scores[p] = 0.85 / (1.0 + static_cast<double>((p * 2654435761u) % 1000));
    }
    engine = std::make_unique<search::MinervaEngine>(&corpus, search::SearchOptions());
    CompressedIndexOptions copts;
    copts.prior_weight = prior_weight;
    frozen = std::make_unique<CompressedPeerIndex>(CompressedPeerIndex::Freeze(
        *index, corpus, prior_weight == 0.0 ? decltype(jxp_scores){} : jxp_scores,
        copts));
  }

  /// Exhaustive uncompressed reference with the documented tie-break.
  /// tfidf comes from MinervaEngine::TfIdfScore (the canonical scorer);
  /// fusion follows the qp model.
  TopKList BruteForce(std::span<const search::TermId> query, size_t k) const {
    const double w = frozen->prior_weight();
    std::unordered_map<graph::PageId, double> scores;
    for (search::TermId term : query) {
      if (const std::vector<search::Posting>* postings = index->PostingsFor(term)) {
        for (const search::Posting& posting : *postings) {
          if (!scores.count(posting.page)) {
            const double tfidf =
                engine->TfIdfScore(query, corpus.DocumentFor(posting.page));
            scores[posting.page] =
                w == 0.0 ? tfidf : (1.0 - w) * tfidf + w * frozen->PriorOf(posting.page);
          }
        }
      }
    }
    std::vector<std::pair<graph::PageId, double>> ranked(scores.begin(), scores.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      return BetterResult(a.second, a.first, b.second, b.first);
    });
    if (ranked.size() > k) ranked.resize(k);
    return ranked;
  }

  std::vector<search::TermId> SampleQuery(int trial, Random& rng) const {
    return corpus.SampleQueryTerms(static_cast<graph::CategoryId>(trial % 4),
                                   2 + trial % 3, rng);
  }

  graph::CategorizedGraph collection;
  search::Corpus corpus;
  std::unique_ptr<search::PeerIndex> index;
  std::unordered_map<graph::PageId, double> jxp_scores;
  std::unique_ptr<search::MinervaEngine> engine;
  std::unique_ptr<CompressedPeerIndex> frozen;
};

TEST(ExhaustiveTopKTest, BitIdenticalToUncompressedBruteForce) {
  QpFixture fx;
  Random rng(63);
  for (int trial = 0; trial < 8; ++trial) {
    const auto query = fx.SampleQuery(trial, rng);
    const TopKList got = ExhaustiveTopK(*fx.frozen, query, 10, nullptr);
    const TopKList want = fx.BruteForce(query, 10);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].first, want[i].first) << "trial " << trial << " rank " << i;
      // Exact double equality: the compressed path must reproduce the
      // engine's scoring arithmetic bit for bit.
      EXPECT_EQ(got[i].second, want[i].second) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(MaxScoreTopKTest, BitIdenticalToExhaustive) {
  QpFixture fx;
  Random rng(64);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = fx.SampleQuery(trial, rng);
    for (size_t k : {1u, 3u, 10u, 100u}) {
      const TopKList oracle = ExhaustiveTopK(*fx.frozen, query, k, nullptr);
      const TopKList fast = MaxScoreTopK(*fx.frozen, query, k, nullptr);
      ASSERT_EQ(fast.size(), oracle.size()) << "trial " << trial << " k " << k;
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(fast[i].first, oracle[i].first)
            << "trial " << trial << " k " << k << " rank " << i;
        EXPECT_EQ(fast[i].second, oracle[i].second)
            << "trial " << trial << " k " << k << " rank " << i;
      }
    }
  }
}

TEST(MaxScoreTopKTest, BitIdenticalToExhaustiveWithPriorFusion) {
  QpFixture fx(/*prior_weight=*/0.4);
  Random rng(65);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = fx.SampleQuery(trial, rng);
    const TopKList oracle = ExhaustiveTopK(*fx.frozen, query, 10, nullptr);
    const TopKList fast = MaxScoreTopK(*fx.frozen, query, 10, nullptr);
    const TopKList want = fx.BruteForce(query, 10);
    ASSERT_EQ(oracle.size(), want.size());
    ASSERT_EQ(fast.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(oracle[i].first, want[i].first) << "trial " << trial << " rank " << i;
      EXPECT_EQ(oracle[i].second, want[i].second) << "trial " << trial << " rank " << i;
      EXPECT_EQ(fast[i].first, want[i].first) << "trial " << trial << " rank " << i;
      EXPECT_EQ(fast[i].second, want[i].second) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(MaxScoreTopKTest, DecodesFewerPostingsThanExhaustive) {
  QpFixture fx;
  Random rng(66);
  size_t trials_with_pruning = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const auto query = fx.SampleQuery(trial, rng);
    QueryStats oracle_stats;
    QueryStats fast_stats;
    ExhaustiveTopK(*fx.frozen, query, 10, &oracle_stats);
    MaxScoreTopK(*fx.frozen, query, 10, &fast_stats);
    EXPECT_LE(fast_stats.decode.postings_decoded, oracle_stats.decode.postings_decoded);
    if (fast_stats.decode.postings_decoded < oracle_stats.decode.postings_decoded) {
      ++trials_with_pruning;
    }
  }
  // Dynamic pruning must actually prune on typical topical queries.
  EXPECT_GT(trials_with_pruning, 0u);
}

TEST(MaxScoreTopKTest, PrimedThresholdPreservesTopK) {
  // Prime with a deflated true k-th score — the tightest threshold any
  // caller may legally supply. The primed run must return the exact same
  // list while never decoding more.
  QpFixture fx;
  Random rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    const auto query = fx.SampleQuery(trial, rng);
    QueryStats cold_stats;
    const TopKList cold = MaxScoreTopK(*fx.frozen, query, 10, &cold_stats);
    if (cold.size() < 10 || cold.back().second <= 0) continue;
    MaxScoreOptions options;
    options.primed_threshold = cold.back().second * (1.0 - 1e-12);
    QueryStats primed_stats;
    const TopKList primed = MaxScoreTopK(*fx.frozen, query, 10, options, &primed_stats);
    ASSERT_EQ(primed.size(), cold.size()) << "trial " << trial;
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(primed[i].first, cold[i].first) << "trial " << trial << " rank " << i;
      EXPECT_EQ(primed[i].second, cold[i].second) << "trial " << trial << " rank " << i;
    }
    EXPECT_LE(primed_stats.decode.postings_decoded, cold_stats.decode.postings_decoded)
        << "trial " << trial;
  }
}

TEST(MaxScoreTopKTest, LiveBlockSkippingCutsDecodeOnSelectiveQueries) {
  // Fine-grained blocks + single-term queries: blocks whose max impact falls
  // below the primed threshold form dead ranges the candidate loop must jump
  // over without decoding. Results stay bit-identical throughout.
  QpFixture fx;
  CompressedIndexOptions copts;
  copts.block_size = 16;
  const CompressedPeerIndex fine = CompressedPeerIndex::Freeze(
      *fx.index, fx.corpus, {}, copts);

  size_t skipped_live_total = 0;
  size_t cold_postings = 0;
  size_t primed_postings = 0;
  size_t dead_ranges_total = 0;
  for (const auto& [term, postings] : fx.index->postings()) {
    if (postings.size() < 200) continue;
    const std::vector<search::TermId> query = {term};
    QueryStats cold_stats;
    const TopKList cold = MaxScoreTopK(fine, query, 10, &cold_stats);
    if (cold.size() < 10 || cold.back().second <= 0) continue;
    MaxScoreOptions options;
    options.primed_threshold = cold.back().second * (1.0 - 1e-12);
    QueryStats primed_stats;
    const TopKList primed = MaxScoreTopK(fine, query, 10, options, &primed_stats);
    ASSERT_EQ(primed.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i) {
      EXPECT_EQ(primed[i].first, cold[i].first) << "rank " << i;
      EXPECT_EQ(primed[i].second, cold[i].second) << "rank " << i;
    }
    skipped_live_total += primed_stats.decode.blocks_skipped_live;
    dead_ranges_total += primed_stats.dead_ranges;
    cold_postings += cold_stats.decode.postings_decoded;
    primed_postings += primed_stats.decode.postings_decoded;
  }
  ASSERT_GT(cold_postings, 0u) << "no selective term found; corpus too diverse";
  // Liveness must fire: dead ranges found, blocks skipped because of them,
  // and strictly fewer postings materialized.
  EXPECT_GT(dead_ranges_total, 0u);
  EXPECT_GT(skipped_live_total, 0u);
  EXPECT_LT(primed_postings, cold_postings);
}

TEST(MaxScoreTopKTest, LivenessOffMatchesLivenessOn) {
  QpFixture fx;
  Random rng(68);
  for (int trial = 0; trial < 6; ++trial) {
    const auto query = fx.SampleQuery(trial, rng);
    MaxScoreOptions off;
    off.live_blocks = false;
    const TopKList with_ranges = MaxScoreTopK(*fx.frozen, query, 10, nullptr);
    const TopKList without = MaxScoreTopK(*fx.frozen, query, 10, off, nullptr);
    ASSERT_EQ(with_ranges.size(), without.size()) << "trial " << trial;
    for (size_t i = 0; i < without.size(); ++i) {
      EXPECT_EQ(with_ranges[i].first, without[i].first) << "trial " << trial;
      EXPECT_EQ(with_ranges[i].second, without[i].second) << "trial " << trial;
    }
  }
}

TEST(MaxScoreTopKTest, ReusedScratchMatchesFreshScratch) {
  // One scratch through queries of 3, 1, 0 (an unknown term) and 2 lists,
  // first primed (so live ranges are built early and many are dead), then
  // cold: whatever an earlier call left in the scratch (more cursors, a
  // range set, a full heap) must not reach a later result or counter.
  QpFixture fx(/*prior_weight=*/0.4);
  Random rng(69);
  const std::vector<std::vector<search::TermId>> queries = {
      fx.corpus.SampleQueryTerms(0, 3, rng),
      fx.corpus.SampleQueryTerms(1, 1, rng),
      {static_cast<search::TermId>(99999)},
      fx.corpus.SampleQueryTerms(2, 2, rng),
  };
  MaxScoreScratch reused;
  for (const bool primed : {true, false}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const std::string label =
          std::string(primed ? "primed" : "cold") + " query " + std::to_string(q);
      MaxScoreOptions options;
      if (primed) {
        const TopKList cold = MaxScoreTopK(*fx.frozen, queries[q], 10, nullptr);
        if (cold.size() == 10) {
          options.primed_threshold = cold.back().second * (1.0 - 1e-12);
        }
      }
      QueryStats reused_stats;
      QueryStats fresh_stats;
      const TopKList got =
          MaxScoreTopK(*fx.frozen, queries[q], 10, options, reused, &reused_stats);
      MaxScoreScratch fresh;
      const TopKList want =
          MaxScoreTopK(*fx.frozen, queries[q], 10, options, fresh, &fresh_stats);
      EXPECT_EQ(got, want) << label;
      EXPECT_EQ(got.empty(), q == 2) << label;
      EXPECT_TRUE(reused_stats == fresh_stats) << label;
    }
  }
}

TEST(LogTfTest, TableMatchesRuntimeLogBitForBit) {
  // The reference std::log runs on a volatile input, so the compiler cannot
  // fold it; the check runs one entry past the table, where LogTf calls
  // std::log itself.
  volatile uint32_t opaque_zero = 0;
  for (uint32_t tf = 0; tf <= kLogTfTableSize; ++tf) {
    const double want = std::log(static_cast<double>(tf + opaque_zero));
    EXPECT_EQ(std::bit_cast<uint64_t>(LogTf(tf)), std::bit_cast<uint64_t>(want))
        << "tf " << tf;
  }
}

TEST(QueryProcessorTest, EmptyAndUnknownQueries) {
  QpFixture fx;
  const std::vector<search::TermId> empty;
  EXPECT_TRUE(ExhaustiveTopK(*fx.frozen, empty, 5, nullptr).empty());
  EXPECT_TRUE(MaxScoreTopK(*fx.frozen, empty, 5, nullptr).empty());
  const std::vector<search::TermId> unknown = {static_cast<search::TermId>(99999),
                                               static_cast<search::TermId>(99998)};
  EXPECT_TRUE(ExhaustiveTopK(*fx.frozen, unknown, 5, nullptr).empty());
  EXPECT_TRUE(MaxScoreTopK(*fx.frozen, unknown, 5, nullptr).empty());
}

TEST(QueryProcessorTest, KLargerThanCandidateSet) {
  QpFixture fx;
  // The rarest indexed term: k far above its document frequency.
  search::TermId rare = 0;
  size_t best_df = ~size_t{0};
  for (const auto& [term, postings] : fx.index->postings()) {
    if (!postings.empty() && postings.size() < best_df) {
      best_df = postings.size();
      rare = term;
    }
  }
  const std::vector<search::TermId> query = {rare};
  const TopKList oracle = ExhaustiveTopK(*fx.frozen, query, 10000, nullptr);
  const TopKList fast = MaxScoreTopK(*fx.frozen, query, 10000, nullptr);
  EXPECT_EQ(oracle.size(), best_df);
  ASSERT_EQ(fast.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(fast[i].first, oracle[i].first);
    EXPECT_EQ(fast[i].second, oracle[i].second);
  }
}

TEST(QueryProcessorTest, TieBreakIsPageAscending) {
  QpFixture fx;
  // A single-term query scores every matching document (1 + log tf) * idf:
  // documents sharing the term frequency tie *exactly*. Find a term and a k
  // where the tie straddles the cutoff, and require page-ascending order.
  for (const auto& [term, postings] : fx.index->postings()) {
    if (postings.size() < 8) continue;
    const std::vector<search::TermId> query = {term};
    const TopKList all =
        ExhaustiveTopK(*fx.frozen, query, postings.size(), nullptr);
    // Locate a run of tied scores.
    size_t run_start = 0;
    for (size_t i = 1; i <= all.size(); ++i) {
      if (i == all.size() || all[i].second != all[run_start].second) {
        if (i - run_start >= 2) {
          // Cut inside the run: the kept prefix must be the smallest pages.
          const size_t k = run_start + (i - run_start) / 2 + 1;
          const TopKList cut = ExhaustiveTopK(*fx.frozen, query, k, nullptr);
          const TopKList fast = MaxScoreTopK(*fx.frozen, query, k, nullptr);
          ASSERT_EQ(cut.size(), k);
          ASSERT_EQ(fast.size(), k);
          for (size_t j = 0; j < k; ++j) {
            EXPECT_EQ(cut[j].first, all[j].first);
            EXPECT_EQ(fast[j].first, all[j].first);
          }
          // Within the tie run, pages ascend.
          for (size_t j = run_start + 1; j < k; ++j) {
            EXPECT_LT(cut[j - 1].first, cut[j].first);
          }
          return;  // One straddled tie exercised: done.
        }
        run_start = i;
      }
    }
  }
  FAIL() << "no tied score run found; corpus parameters too diverse";
}

}  // namespace
}  // namespace qp
}  // namespace jxp
