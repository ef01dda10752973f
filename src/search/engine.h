#ifndef JXP_SEARCH_ENGINE_H_
#define JXP_SEARCH_ENGINE_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "qp/compressed_index.h"
#include "search/index.h"

namespace jxp {
namespace search {

/// How the engine chooses the remote peers a query is forwarded to.
enum class RoutingPolicy {
  /// Rank peers by the sum of their local document frequencies of the query
  /// terms (a CORI-style resource-selection heuristic).
  kDocumentFrequency,
  /// Rank peers by the JXP authority mass they hold on pages matching the
  /// query terms (the paper's Section 7 plan: "integrate the JXP scores into
  /// the query routing mechanism").
  kJxpAuthority,
};

/// Options of the Minerva-style engine.
struct SearchOptions {
  /// Queries are forwarded to this many peers ("a small number of remote
  /// peers for additional results").
  size_t peers_to_route = 6;
  /// Per-peer result-list cap before merging.
  size_t results_per_peer = 50;
  /// Fusion weight: final = (1 - jxp_weight) * tfidf + jxp_weight * jxp,
  /// both min-max normalized over the candidate set. The paper uses 0.4.
  double jxp_weight = 0.4;
};

/// One merged search result with its component scores.
struct SearchResult {
  graph::PageId page = graph::kInvalidPage;
  double tfidf = 0;
  double jxp = 0;
  /// Weighted fusion of the normalized components.
  double fused = 0;
};

/// A simulated Minerva network: per-peer inverted indexes, query routing,
/// tf*idf retrieval, and ranking fusion with JXP authority scores
/// (Section 6.3).
class MinervaEngine {
 public:
  /// `corpus` provides documents and global df statistics; must outlive the
  /// engine.
  MinervaEngine(const Corpus* corpus, const SearchOptions& options);

  /// Registers a peer hosting `pages`, building its local index and
  /// freezing it into the compressed layout that retrieval runs on.
  void AddPeer(p2p::PeerId id, std::span<const graph::PageId> pages);

  /// Number of registered peers.
  size_t NumPeers() const { return indexes_.size(); }

  /// Ranks all peers for a query (best first) under a routing policy.
  /// `jxp_scores` is the network JXP score table (used by kJxpAuthority).
  std::vector<p2p::PeerId> RoutePeers(
      std::span<const TermId> query,
      const std::unordered_map<graph::PageId, double>& jxp_scores,
      RoutingPolicy policy) const;

  /// Executes the query: routes it to the top peers, retrieves each peer's
  /// tf*idf top results with qp::MaxScoreTopK, merges duplicates, and
  /// computes the fused scores.
  /// The returned list is sorted by *fused* score; re-sort by `tfidf` for
  /// the text-only baseline ranking.
  std::vector<SearchResult> ExecuteQuery(
      std::span<const TermId> query,
      const std::unordered_map<graph::PageId, double>& jxp_scores,
      RoutingPolicy policy) const;

  /// tf*idf document score for a query: sum over query terms of
  /// (1 + log tf) * log(N / df) with corpus-wide N and df. The scalar
  /// reference the compressed processors reproduce bit for bit.
  double TfIdfScore(std::span<const TermId> query, const Document& doc) const;

 private:
  const Corpus* corpus_;
  SearchOptions options_;
  /// Mutable per-peer indexes, kept for routing.
  std::vector<PeerIndex> indexes_;
  /// Frozen compressed twin of indexes_[i] (same position); retrieval runs
  /// on these.
  std::vector<qp::CompressedPeerIndex> compressed_;
};

/// Extracts the top-k page ids from results re-sorted by pure tf*idf.
std::vector<graph::PageId> RankByTfIdf(std::vector<SearchResult> results, size_t k);

/// Extracts the top-k page ids in fused order.
std::vector<graph::PageId> RankByFused(std::vector<SearchResult> results, size_t k);

}  // namespace search
}  // namespace jxp

#endif  // JXP_SEARCH_ENGINE_H_
