#ifndef JXP_QP_COMPRESSED_INDEX_H_
#define JXP_QP_COMPRESSED_INDEX_H_

#include <unordered_map>
#include <vector>

#include "qp/block_posting_list.h"
#include "qp/flat_u32_map.h"
#include "search/corpus.h"
#include "search/index.h"

namespace jxp {
namespace qp {

/// How a PeerIndex is frozen into the compressed serving layout.
struct CompressedIndexOptions {
  /// Postings per compressed block.
  size_t block_size = BlockPostingList::kDefaultBlockSize;
  /// Unused: there is one block codec. Kept because the end-to-end
  /// benchmark source (bench/e2e/serve_zipf.cc) still assigns it.
  BlockCodec codec = BlockCodec::kPacked;
  /// When > 0, Freeze also computes a term-level threshold primer per list
  /// with at least primer_k postings: the primer_k-th largest value of
  ///   (1 - w) * impact(d) + w * prior(d)
  /// over the list's postings (exact doubles, same expression shape as the
  /// canonical fused score). Any top-primer_k result set over a query
  /// containing the term has a k-th score >= this primer — the safe
  /// lower bound threshold priming starts the MaxScore heap from
  /// (DESIGN.md §6h). 0 skips the computation.
  size_t primer_k = 0;
  /// Weight w of the static JXP prior in the fused per-peer score
  ///   score(d) = (1 - w) * tfidf(d) + w * jxp(d).
  /// 0 (the default) scores pure tf*idf, bit-identical to
  /// MinervaEngine::TfIdfScore — the setting the engine-equivalence tests
  /// pin down. With w > 0 the prior is folded into every per-block upper
  /// bound, so MaxScore prunes against the *fused* score (the JXP-aware
  /// dynamic pruning of DESIGN.md §6f).
  double prior_weight = 0.0;
};

/// Compressed-size accounting of a frozen index.
struct CompressedIndexStats {
  size_t num_terms = 0;
  size_t num_postings = 0;
  size_t num_blocks = 0;
  size_t docid_bytes = 0;
  size_t freq_bytes = 0;
  size_t block_metadata_bytes = 0;
  /// Per-list directory entry: term id (4) + idf (8) + list max bounds (8).
  size_t list_metadata_bytes = 0;
  /// Static-prior table: docid (4) + score (8) per stored document.
  size_t prior_bytes = 0;

  /// Posting-payload bytes (docids + frequencies + per-block metadata) per
  /// posting; the figure compared against the 8-byte uncompressed
  /// search::Posting baseline.
  double CompressedBytesPerPosting() const {
    if (num_postings == 0) return 0;
    return static_cast<double>(docid_bytes + freq_bytes + block_metadata_bytes) /
           static_cast<double>(num_postings);
  }
  /// sizeof(search::Posting): 4-byte page id + 4-byte tf.
  static constexpr double kUncompressedBytesPerPosting = 8.0;

  void MergeFrom(const CompressedIndexStats& other);
};

/// A peer's inverted index frozen into block-compressed posting lists with
/// score-bound metadata (the serving-side counterpart of the mutable
/// search::PeerIndex). Freezing captures, per term, the exact idf the
/// MinervaEngine scoring uses (log(N / df) with corpus-wide N and df) and,
/// per document, the exact JXP static prior, so the query processors in
/// qp/query_processor.h reproduce MinervaEngine scores bit for bit while
/// the quantized per-block bounds stay true upper bounds for pruning.
class CompressedPeerIndex {
 public:
  /// One term's frozen list together with its scoring weight.
  struct TermList {
    search::TermId term = 0;
    double idf = 0;
    /// Safe threshold primer (see CompressedIndexOptions::primer_k); 0 when
    /// priming is off or the list is shorter than primer_k.
    double primer = 0;
    BlockPostingList list;
  };

  CompressedPeerIndex() = default;

  /// Freezes `index`. `jxp_scores` supplies the static prior of each
  /// document (pages absent from the table have prior 0); pass an empty map
  /// when options.prior_weight == 0. Posting lists must be sorted by page
  /// id, the PeerIndex invariant (search/index.h).
  static CompressedPeerIndex Freeze(
      const search::PeerIndex& index, const search::Corpus& corpus,
      const std::unordered_map<graph::PageId, double>& jxp_scores,
      const CompressedIndexOptions& options);

  /// Every frozen list in deterministic (ascending-term) order.
  const std::vector<TermList>& lists() const { return lists_; }

  /// The frozen list of a term, or nullptr if the peer has none.
  const TermList* ListFor(search::TermId term) const {
    const uint32_t* at = list_of_.Find(term);
    return at == nullptr ? nullptr : &lists_[*at];
  }

  /// Exact static prior of a document (0 when absent). Only consulted when
  /// prior_weight() > 0.
  double PriorOf(graph::PageId page) const {
    const double* prior = priors_.Find(page);
    return prior == nullptr ? 0.0 : *prior;
  }

  /// Upper bound (>=) of every document's exact prior.
  float max_prior_bound() const { return max_prior_bound_; }

  double prior_weight() const { return prior_weight_; }
  p2p::PeerId owner() const { return owner_; }
  size_t num_terms() const { return lists_.size(); }
  const CompressedIndexStats& stats() const { return stats_; }

 private:
  p2p::PeerId owner_ = p2p::kInvalidPeer;
  double prior_weight_ = 0;
  std::vector<TermList> lists_;
  /// Term -> position in lists_.
  FlatU32Map<uint32_t> list_of_;
  /// Page -> exact static prior, for pages whose prior is nonzero.
  FlatU32Map<double> priors_;
  float max_prior_bound_ = 0;
  CompressedIndexStats stats_;
};

}  // namespace qp
}  // namespace jxp

#endif  // JXP_QP_COMPRESSED_INDEX_H_
