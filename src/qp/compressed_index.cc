#include "qp/compressed_index.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace jxp {
namespace qp {

void CompressedIndexStats::MergeFrom(const CompressedIndexStats& other) {
  num_terms += other.num_terms;
  num_postings += other.num_postings;
  num_blocks += other.num_blocks;
  docid_bytes += other.docid_bytes;
  freq_bytes += other.freq_bytes;
  block_metadata_bytes += other.block_metadata_bytes;
  list_metadata_bytes += other.list_metadata_bytes;
  prior_bytes += other.prior_bytes;
}

CompressedPeerIndex CompressedPeerIndex::Freeze(
    const search::PeerIndex& index, const search::Corpus& corpus,
    const std::unordered_map<graph::PageId, double>& jxp_scores,
    const CompressedIndexOptions& options) {
  JXP_CHECK_GE(options.prior_weight, 0.0);
  JXP_CHECK_LE(options.prior_weight, 1.0);
  CompressedPeerIndex frozen;
  frozen.owner_ = index.owner();
  frozen.prior_weight_ = options.prior_weight;

  // Deterministic layout: freeze terms in sorted order regardless of the
  // source map's iteration order.
  std::vector<search::TermId> terms;
  terms.reserve(index.postings().size());
  for (const auto& [term, postings] : index.postings()) terms.push_back(term);
  std::sort(terms.begin(), terms.end());
  // Both lookup tables are sized once: every term gets a list, and a prior
  // is stored at most once per indexed document.
  frozen.lists_.reserve(terms.size());
  frozen.list_of_ = FlatU32Map<uint32_t>(terms.size());
  if (!jxp_scores.empty()) frozen.priors_ = FlatU32Map<double>(index.NumDocuments());

  const double num_docs = static_cast<double>(corpus.NumDocuments());
  const double w = options.prior_weight;
  std::vector<BlockPostingList::PostingIn> ins;
  std::vector<double> primer_values;
  for (search::TermId term : terms) {
    const std::vector<search::Posting>* postings = index.PostingsFor(term);
    const uint32_t df = corpus.DocumentFrequency(term);
    // A df of 0 would contribute nothing to any score (the engine skips such
    // terms); an indexed term always appears in at least one document.
    JXP_CHECK_GE(df, 1u);
    const double idf = std::log(num_docs / static_cast<double>(df));
    ins.clear();
    ins.reserve(postings->size());
    for (const search::Posting& posting : *postings) {
      BlockPostingList::PostingIn in;
      in.docid = posting.page;
      in.tf = posting.tf;
      in.impact = (1.0 + std::log(static_cast<double>(posting.tf))) * idf;
      const auto it = jxp_scores.find(posting.page);
      in.prior = it == jxp_scores.end() ? 0.0 : it->second;
      if (in.prior != 0.0) frozen.priors_.TryInsert(posting.page, in.prior);
      ins.push_back(in);
    }
    TermList entry;
    entry.term = term;
    entry.idf = idf;
    entry.list = BlockPostingList::Build(ins, options.block_size);
    if (options.primer_k > 0 && ins.size() >= options.primer_k) {
      // Per-posting lower bound of the document's fused score (the same
      // double expression shape as the canonical score, so fl-monotonicity
      // guarantees score(d) >= value(d)). The primer_k-th largest value is
      // then a lower bound of the k-th best score of ANY query containing
      // this term: its top primer_k postings each score at least their own
      // value, hence at least the primer.
      primer_values.clear();
      primer_values.reserve(ins.size());
      for (const BlockPostingList::PostingIn& in : ins) {
        primer_values.push_back(w == 0.0 ? in.impact
                                         : (1.0 - w) * in.impact + w * in.prior);
      }
      std::nth_element(primer_values.begin(),
                       primer_values.begin() + static_cast<ptrdiff_t>(options.primer_k - 1),
                       primer_values.end(), std::greater<double>());
      entry.primer = primer_values[options.primer_k - 1];
    }
    frozen.max_prior_bound_ =
        std::max(frozen.max_prior_bound_, entry.list.max_prior());

    frozen.stats_.num_terms += 1;
    frozen.stats_.num_postings += entry.list.num_postings();
    frozen.stats_.num_blocks += entry.list.num_blocks();
    frozen.stats_.docid_bytes += entry.list.docid_bytes();
    frozen.stats_.freq_bytes += entry.list.freq_bytes();
    frozen.stats_.block_metadata_bytes += entry.list.metadata_bytes();
    frozen.stats_.list_metadata_bytes += sizeof(search::TermId) + sizeof(double) + 2 * sizeof(float);

    frozen.list_of_.TryInsert(term, static_cast<uint32_t>(frozen.lists_.size()));
    frozen.lists_.push_back(std::move(entry));
  }
  frozen.stats_.prior_bytes =
      frozen.priors_.size() * (sizeof(graph::PageId) + sizeof(double));
  return frozen;
}

}  // namespace qp
}  // namespace jxp
