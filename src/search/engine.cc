#include "search/engine.h"

#include <algorithm>
#include <cmath>

#include "qp/query_processor.h"

namespace jxp {
namespace search {

namespace {

double JxpScoreOf(const std::unordered_map<graph::PageId, double>& jxp_scores,
                  graph::PageId page) {
  const auto it = jxp_scores.find(page);
  return it == jxp_scores.end() ? 0.0 : it->second;
}

}  // namespace

MinervaEngine::MinervaEngine(const Corpus* corpus, const SearchOptions& options)
    : corpus_(corpus), options_(options) {
  JXP_CHECK(corpus_ != nullptr);
  JXP_CHECK_GT(options_.peers_to_route, 0u);
  JXP_CHECK_GE(options_.jxp_weight, 0.0);
  JXP_CHECK_LE(options_.jxp_weight, 1.0);
}

void MinervaEngine::AddPeer(p2p::PeerId id, std::span<const graph::PageId> pages) {
  PeerIndex index(id);
  for (graph::PageId page : pages) index.AddDocument(corpus_->DocumentFor(page));
  // Freeze with prior_weight 0: fusion with the JXP prior happens after the
  // cross-peer merge (with min-max normalization), so the per-peer retrieval
  // score must stay pure tf*idf, bit-identical to TfIdfScore.
  qp::CompressedIndexOptions copts;
  copts.prior_weight = 0.0;
  compressed_.push_back(qp::CompressedPeerIndex::Freeze(index, *corpus_, {}, copts));
  indexes_.push_back(std::move(index));
}

double MinervaEngine::TfIdfScore(std::span<const TermId> query, const Document& doc) const {
  const double num_docs = static_cast<double>(corpus_->NumDocuments());
  double score = 0;
  for (TermId term : query) {
    // Documents are small: linear scan over the sorted term list.
    const auto it = std::lower_bound(
        doc.terms.begin(), doc.terms.end(), term,
        [](const std::pair<TermId, uint32_t>& e, TermId t) { return e.first < t; });
    if (it == doc.terms.end() || it->first != term) continue;
    const uint32_t df = corpus_->DocumentFrequency(term);
    if (df == 0) continue;
    score += (1.0 + std::log(static_cast<double>(it->second))) *
             std::log(num_docs / static_cast<double>(df));
  }
  return score;
}

std::vector<p2p::PeerId> MinervaEngine::RoutePeers(
    std::span<const TermId> query,
    const std::unordered_map<graph::PageId, double>& jxp_scores,
    RoutingPolicy policy) const {
  std::vector<std::pair<double, p2p::PeerId>> ranked;
  ranked.reserve(indexes_.size());
  for (const PeerIndex& index : indexes_) {
    double goodness = 0;
    for (TermId term : query) {
      if (policy == RoutingPolicy::kDocumentFrequency) {
        goodness += static_cast<double>(index.LocalDocumentFrequency(term));
      } else {
        // JXP-guided routing: the authority mass the peer holds on matching
        // pages.
        if (const std::vector<Posting>* postings = index.PostingsFor(term)) {
          for (const Posting& posting : *postings) {
            goodness += JxpScoreOf(jxp_scores, posting.page);
          }
        }
      }
    }
    ranked.emplace_back(goodness, index.owner());
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<p2p::PeerId> peers;
  peers.reserve(ranked.size());
  for (const auto& [goodness, peer] : ranked) peers.push_back(peer);
  return peers;
}

std::vector<SearchResult> MinervaEngine::ExecuteQuery(
    std::span<const TermId> query,
    const std::unordered_map<graph::PageId, double>& jxp_scores,
    RoutingPolicy policy) const {
  const std::vector<p2p::PeerId> routed = RoutePeers(query, jxp_scores, policy);
  const size_t fanout = std::min(options_.peers_to_route, routed.size());

  // Collect per-peer top results, deduplicating pages across peers (the
  // replicas hold identical documents, so any copy scores the same).
  std::unordered_map<graph::PageId, double> tfidf_of;
  for (size_t r = 0; r < fanout; ++r) {
    size_t pos = 0;
    while (pos < compressed_.size() && compressed_[pos].owner() != routed[r]) ++pos;
    JXP_CHECK_LT(pos, compressed_.size());
    const qp::TopKList local =
        qp::MaxScoreTopK(compressed_[pos], query, options_.results_per_peer, nullptr);
    for (const auto& [page, score] : local) tfidf_of[page] = score;
  }

  // Merge and fuse.
  std::vector<SearchResult> results;
  results.reserve(tfidf_of.size());
  double max_tfidf = 0;
  double max_jxp = 0;
  for (const auto& [page, tfidf] : tfidf_of) {
    SearchResult result;
    result.page = page;
    result.tfidf = tfidf;
    result.jxp = JxpScoreOf(jxp_scores, page);
    max_tfidf = std::max(max_tfidf, result.tfidf);
    max_jxp = std::max(max_jxp, result.jxp);
    results.push_back(result);
  }
  for (SearchResult& result : results) {
    const double norm_tfidf = max_tfidf > 0 ? result.tfidf / max_tfidf : 0;
    const double norm_jxp = max_jxp > 0 ? result.jxp / max_jxp : 0;
    result.fused = (1.0 - options_.jxp_weight) * norm_tfidf + options_.jxp_weight * norm_jxp;
  }
  std::sort(results.begin(), results.end(), [](const SearchResult& a, const SearchResult& b) {
    return a.fused != b.fused ? a.fused > b.fused : a.page < b.page;
  });
  return results;
}

std::vector<graph::PageId> RankByTfIdf(std::vector<SearchResult> results, size_t k) {
  std::sort(results.begin(), results.end(), [](const SearchResult& a, const SearchResult& b) {
    return a.tfidf != b.tfidf ? a.tfidf > b.tfidf : a.page < b.page;
  });
  std::vector<graph::PageId> pages;
  for (size_t i = 0; i < results.size() && i < k; ++i) pages.push_back(results[i].page);
  return pages;
}

std::vector<graph::PageId> RankByFused(std::vector<SearchResult> results, size_t k) {
  std::sort(results.begin(), results.end(), [](const SearchResult& a, const SearchResult& b) {
    return a.fused != b.fused ? a.fused > b.fused : a.page < b.page;
  });
  std::vector<graph::PageId> pages;
  for (size_t i = 0; i < results.size() && i < k; ++i) pages.push_back(results[i].page);
  return pages;
}

}  // namespace search
}  // namespace jxp
