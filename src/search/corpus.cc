#include "search/corpus.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace jxp {
namespace search {

namespace {

/// Document lengths are uniform in [kMinDocLength, kMaxDocLength].
constexpr uint32_t kMinDocLength = 40;
constexpr uint32_t kMaxDocLength = 160;

/// Draws a Zipf-like rank in [0, slots): log-uniform, so rank r is drawn
/// with probability ~ 1/r (a Zipf(1) approximation that needs no tables).
size_t DrawZipfRank(size_t slots, Random& rng) {
  JXP_CHECK_GT(slots, 0u);
  const double u = rng.NextDouble();
  const size_t rank = static_cast<size_t>(std::pow(static_cast<double>(slots), u)) - 1;
  return std::min(rank, slots - 1);
}

}  // namespace

Corpus Corpus::Generate(const graph::CategorizedGraph& collection,
                        const CorpusOptions& options, uint64_t seed) {
  const size_t category_slice = options.category_vocab_size;
  const size_t reserved = static_cast<size_t>(collection.num_categories) * category_slice;
  JXP_CHECK_GT(options.vocabulary_size, reserved)
      << "vocabulary too small for the category slices";
  const size_t shared_base = reserved;
  const size_t shared_size = options.vocabulary_size - reserved;

  Corpus corpus;
  corpus.options_ = options;
  corpus.num_categories_ = collection.num_categories;
  corpus.df_.assign(options.vocabulary_size, 0);
  corpus.documents_.resize(collection.graph.NumNodes());

  Random rng(seed);
  std::map<TermId, uint32_t> bag;
  for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
    const graph::CategoryId topic = collection.category[p];
    Document& doc = corpus.documents_[p];
    doc.page = p;
    doc.topic = topic;
    doc.length = kMinDocLength +
                 static_cast<uint32_t>(rng.NextBounded(kMaxDocLength - kMinDocLength + 1));
    bag.clear();
    for (uint32_t token = 0; token < doc.length; ++token) {
      TermId term;
      if (rng.NextBool(options.on_topic_probability)) {
        term = static_cast<TermId>(static_cast<size_t>(topic) * category_slice +
                                   DrawZipfRank(category_slice, rng));
      } else {
        term = static_cast<TermId>(shared_base + DrawZipfRank(shared_size, rng));
      }
      bag[term]++;
    }
    doc.terms.assign(bag.begin(), bag.end());
    for (const auto& [term, tf] : doc.terms) corpus.df_[term]++;
  }
  return corpus;
}

std::vector<TermId> Corpus::SampleQueryTerms(graph::CategoryId category, size_t num_terms,
                                             Random& rng) const {
  JXP_CHECK_LT(category, num_categories_);
  const size_t slice = options_.category_vocab_size;
  // Query terms come from the frequent head of the category slice.
  const size_t head = std::max<size_t>(num_terms, slice / 16);
  std::vector<TermId> terms;
  const std::vector<size_t> picks =
      rng.SampleWithoutReplacement(head, std::min(num_terms, head));
  terms.reserve(picks.size());
  for (size_t rank : picks) {
    terms.push_back(static_cast<TermId>(static_cast<size_t>(category) * slice + rank));
  }
  return terms;
}

std::unordered_set<graph::PageId> RelevantPages(const graph::CategorizedGraph& collection,
                                                std::span<const double> pagerank,
                                                graph::CategoryId category,
                                                double authority_fraction) {
  JXP_CHECK_EQ(pagerank.size(), collection.graph.NumNodes());
  JXP_CHECK_GT(authority_fraction, 0.0);
  JXP_CHECK_LE(authority_fraction, 1.0);
  // Rank the category's pages by true PR; the top fraction is core-relevant.
  std::vector<std::pair<double, graph::PageId>> on_topic;
  for (graph::PageId p = 0; p < collection.graph.NumNodes(); ++p) {
    if (collection.category[p] == category) on_topic.emplace_back(pagerank[p], p);
  }
  std::sort(on_topic.begin(), on_topic.end(), std::greater<>());
  const size_t core_count = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(on_topic.size()) * authority_fraction));

  std::unordered_set<graph::PageId> relevant;
  for (size_t i = 0; i < core_count && i < on_topic.size(); ++i) {
    relevant.insert(on_topic[i].second);
  }
  // Extension (paper Section 6.3): on-topic pages linking to a core page
  // also count as relevant — but only those with at least median authority
  // within the category, so that linking to a hub alone does not make a
  // fringe page relevant (hubs have so many in-links that the unrestricted
  // extension would cover most of the category).
  const double median_score =
      on_topic.empty() ? 0.0 : on_topic[on_topic.size() / 2].first;
  std::unordered_set<graph::PageId> extended = relevant;
  for (graph::PageId core : relevant) {
    for (graph::PageId pred : collection.graph.InNeighbors(core)) {
      if (collection.category[pred] == category && pagerank[pred] >= median_score) {
        extended.insert(pred);
      }
    }
  }
  return extended;
}

}  // namespace search
}  // namespace jxp
