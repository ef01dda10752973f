#ifndef JXP_SEARCH_CORPUS_H_
#define JXP_SEARCH_CORPUS_H_

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"

namespace jxp {
namespace search {

/// Identifier of a vocabulary term.
using TermId = uint32_t;

/// A page's textual content in bag-of-words form.
struct Document {
  graph::PageId page = graph::kInvalidPage;
  graph::CategoryId topic = 0;
  /// (term, term frequency), sorted by term id.
  std::vector<std::pair<TermId, uint32_t>> terms;
  /// Total token count.
  uint32_t length = 0;
};

/// Options of the synthetic topic-aligned corpus (the stand-in for the
/// paper's crawled page contents; see DESIGN.md section 3).
struct CorpusOptions {
  /// Total vocabulary size. The first num_categories * category_vocab_size
  /// terms are split into per-category characteristic slices; the remainder
  /// is topic-neutral shared vocabulary.
  size_t vocabulary_size = 20000;
  /// Characteristic terms per category.
  size_t category_vocab_size = 800;
  /// Probability that a token comes from the page's own category slice
  /// (otherwise from the shared slice).
  double on_topic_probability = 0.6;
};

/// A generated corpus: one document per page of a categorized graph, with
/// Zipf-like term frequencies concentrated on the page's category slice.
class Corpus {
 public:
  /// Generates the corpus for `collection`.
  static Corpus Generate(const graph::CategorizedGraph& collection,
                         const CorpusOptions& options, uint64_t seed);

  /// The document of page `p`.
  const Document& DocumentFor(graph::PageId p) const {
    JXP_CHECK_LT(p, documents_.size());
    return documents_[p];
  }

  /// Number of documents (== pages).
  size_t NumDocuments() const { return documents_.size(); }

  /// Corpus-wide document frequency of a term.
  uint32_t DocumentFrequency(TermId term) const {
    return term < df_.size() ? df_[term] : 0;
  }

  /// Number of categories.
  uint32_t num_categories() const { return num_categories_; }

  /// Samples `num_terms` distinct characteristic query terms of `category`,
  /// biased toward its frequent terms (the way popular Web queries use the
  /// salient words of a topic).
  std::vector<TermId> SampleQueryTerms(graph::CategoryId category, size_t num_terms,
                                       Random& rng) const;

 private:
  std::vector<Document> documents_;
  std::vector<uint32_t> df_;
  CorpusOptions options_;
  uint32_t num_categories_ = 0;
};

/// Programmatic relevance ground truth for a topical query (replaces the
/// paper's manual assessment, same mechanism): the *relevant* pages of a
/// category are its authoritative pages — topic == category and true PR
/// within the top `authority_fraction` of the category — plus, following the
/// paper's extension, the on-topic pages that link to one of those.
std::unordered_set<graph::PageId> RelevantPages(const graph::CategorizedGraph& collection,
                                                std::span<const double> pagerank,
                                                graph::CategoryId category,
                                                double authority_fraction);

}  // namespace search
}  // namespace jxp

#endif  // JXP_SEARCH_CORPUS_H_
