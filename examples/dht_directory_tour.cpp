// A tour of the structured-overlay machinery under a Minerva-style P2P
// search network: the Chord ring, the distributed per-term directory built
// on it, DHT-routed query routing, and MaxScore top-k retrieval over the
// compressed index inside a peer.
//
// Build & run:  ./build/examples/dht_directory_tour

#include <cstdio>

#include "common/random.h"
#include "datasets/collections.h"
#include "pagerank/pagerank.h"
#include "qp/query_processor.h"
#include "search/directory.h"
#include "search/engine.h"

int main() {
  using namespace jxp;  // NOLINT: example brevity.

  // Part 1: the Chord ring.
  std::printf("=== Chord ring ===\n");
  p2p::ChordRing ring;
  const size_t kPeers = 64;
  for (p2p::PeerId p = 0; p < kPeers; ++p) JXP_CHECK_OK(ring.Join(p));
  ring.Stabilize();
  Random rng(1);
  double hops = 0;
  const int kLookups = 500;
  for (int i = 0; i < kLookups; ++i) {
    hops += static_cast<double>(
        ring.Lookup(rng.NextUint64(), static_cast<p2p::PeerId>(rng.NextBounded(kPeers)))
            .hops);
  }
  std::printf("%zu peers, %d random lookups: %.2f hops on average (log2 n = 6)\n\n",
              kPeers, kLookups, hops / kLookups);

  // Part 2: a collection, indexes, and the DHT directory.
  const datasets::Collection collection = datasets::MakeWebCrawlLike(0.02, 2);
  const search::Corpus corpus =
      search::Corpus::Generate(collection.data, search::CorpusOptions(), 3);
  const auto truth = ComputePageRank(collection.data.graph, pagerank::PageRankOptions());
  std::unordered_map<graph::PageId, double> jxp_scores;
  for (graph::PageId p = 0; p < collection.data.graph.NumNodes(); ++p) {
    jxp_scores[p] = truth.scores[p];
  }

  search::MinervaEngine engine(&corpus, search::SearchOptions());
  p2p::ChordRing search_ring;
  std::vector<std::vector<graph::PageId>> fragments(10);
  for (graph::PageId p = 0; p < collection.data.graph.NumNodes(); ++p) {
    fragments[collection.data.category[p]].push_back(p);
  }
  for (p2p::PeerId peer = 0; peer < 10; ++peer) {
    engine.AddPeer(peer, fragments[peer]);
    JXP_CHECK_OK(search_ring.Join(peer));
  }
  search_ring.Stabilize();

  search::DhtDirectory directory(&search_ring);
  engine.PublishToDirectory(directory, jxp_scores);
  std::printf("=== DHT directory ===\n");
  std::printf("published stats for %zu terms; %zu routing hops, %.1f KB on the wire\n\n",
              directory.NumTerms(), directory.total_publish_hops(),
              directory.total_wire_bytes() / 1024.0);

  // Part 3: routing a query through the directory.
  Random qrng(4);
  const auto query = corpus.SampleQueryTerms(/*category=*/5, 3, qrng);
  const auto routed = engine.RoutePeersViaDirectory(
      query, directory, /*asking_peer=*/0, search::RoutingPolicy::kJxpAuthority);
  std::printf("=== Query routing via the directory ===\n");
  std::printf("query on topic 5 -> best peers by JXP authority mass:");
  for (size_t i = 0; i < routed.size() && i < 3; ++i) std::printf(" %u", routed[i]);
  std::printf("  (peer 5 hosts that topic)\n\n");

  // Part 4: MaxScore top-k over the best peer's compressed index. Blocks of
  // 16 let block-max skipping act on a single peer's short lists.
  search::PeerIndex index(routed[0]);
  for (graph::PageId p : fragments[routed[0]]) index.AddDocument(corpus.DocumentFor(p));
  qp::CompressedIndexOptions copts;
  copts.block_size = 16;
  const qp::CompressedPeerIndex frozen =
      qp::CompressedPeerIndex::Freeze(index, corpus, {}, copts);
  qp::QueryStats stats;
  const qp::TopKList top = qp::MaxScoreTopK(frozen, query, 10, &stats);
  size_t total_postings = 0;
  for (search::TermId term : query) {
    if (const auto* postings = index.PostingsFor(term)) total_postings += postings->size();
  }
  std::printf("=== MaxScore top-10 at peer %u ===\n", routed[0]);
  std::printf("decoded %zu of %zu postings at %.2f bytes/posting; %zu documents "
              "scored, %zu ruled out by block upper bounds\n",
              stats.decode.postings_decoded, total_postings,
              frozen.stats().CompressedBytesPerPosting(), stats.candidates_scored,
              stats.docs_pruned);
  for (size_t i = 0; i < top.size() && i < 3; ++i) {
    std::printf("  #%zu page %u (tf*idf %.2f)\n", i + 1, top[i].first, top[i].second);
  }
  return 0;
}
