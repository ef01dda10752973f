#include "graph/graph.h"

#include <algorithm>

namespace jxp {
namespace graph {

bool Graph::HasEdge(PageId u, PageId v) const {
  const auto neighbors = OutNeighbors(u);
  return std::binary_search(neighbors.begin(), neighbors.end(), v);
}

void GraphBuilder::AddEdge(PageId u, PageId v) {
  JXP_CHECK_NE(u, kInvalidPage);
  JXP_CHECK_NE(v, kInvalidPage);
  if (options_.remove_self_loops && u == v) return;
  EnsureNodes(static_cast<size_t>(std::max(u, v)) + 1);
  edges_.push_back({u, v});
}

Graph GraphBuilder::Build() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  if (options_.deduplicate) {
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  }

  Graph g;
  g.num_nodes_ = num_nodes_;
  g.out_offsets_.assign(num_nodes_ + 1, 0);
  g.out_targets_.reserve(edges_.size());
  for (const Edge& e : edges_) g.out_offsets_[e.from + 1]++;
  for (size_t i = 1; i <= num_nodes_; ++i) g.out_offsets_[i] += g.out_offsets_[i - 1];
  for (const Edge& e : edges_) g.out_targets_.push_back(e.to);

  // In-adjacency: counting sort by target, preserving source order (sources
  // come out sorted because edges_ is sorted by (from, to)).
  g.in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) g.in_offsets_[e.to + 1]++;
  for (size_t i = 1; i <= num_nodes_; ++i) g.in_offsets_[i] += g.in_offsets_[i - 1];
  g.in_targets_.resize(edges_.size());
  std::vector<uint64_t> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const Edge& e : edges_) g.in_targets_[cursor[e.to]++] = e.from;

  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

}  // namespace graph
}  // namespace jxp
