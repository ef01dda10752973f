#ifndef JXP_GRAPH_GRAPH_H_
#define JXP_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace jxp {
namespace graph {

/// Global identifier of a Web page (a node of the global link graph).
using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPage = static_cast<PageId>(-1);

/// A directed edge (link) from `from` to `to`.
struct Edge {
  PageId from = kInvalidPage;
  PageId to = kInvalidPage;

  friend bool operator==(const Edge& a, const Edge& b) = default;
};

/// Immutable directed graph in compressed-sparse-row form, with both
/// out-adjacency and in-adjacency indexes. Node ids are dense [0, NumNodes).
///
/// Construction goes through GraphBuilder, which deduplicates parallel edges
/// and (optionally) drops self-loops, the standard preprocessing for
/// PageRank-style link analysis.
class Graph {
 public:
  /// Constructs the empty graph.
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Number of nodes. Node ids are 0 .. NumNodes()-1.
  size_t NumNodes() const { return num_nodes_; }

  /// Number of (deduplicated) directed edges.
  size_t NumEdges() const { return out_targets_.size(); }

  /// Out-degree of `u`.
  size_t OutDegree(PageId u) const {
    JXP_CHECK_LT(u, num_nodes_);
    return out_offsets_[u + 1] - out_offsets_[u];
  }

  /// In-degree of `u`.
  size_t InDegree(PageId u) const {
    JXP_CHECK_LT(u, num_nodes_);
    return in_offsets_[u + 1] - in_offsets_[u];
  }

  /// Successors of `u` (targets of its out-links), sorted ascending.
  std::span<const PageId> OutNeighbors(PageId u) const {
    JXP_CHECK_LT(u, num_nodes_);
    return {out_targets_.data() + out_offsets_[u], out_targets_.data() + out_offsets_[u + 1]};
  }

  /// Predecessors of `u` (sources of its in-links), sorted ascending.
  std::span<const PageId> InNeighbors(PageId u) const {
    JXP_CHECK_LT(u, num_nodes_);
    return {in_targets_.data() + in_offsets_[u], in_targets_.data() + in_offsets_[u + 1]};
  }

  /// True iff the edge u -> v exists (binary search over OutNeighbors).
  bool HasEdge(PageId u, PageId v) const;

 private:
  friend class GraphBuilder;

  size_t num_nodes_ = 0;
  std::vector<uint64_t> out_offsets_ = {0};
  std::vector<PageId> out_targets_;
  std::vector<uint64_t> in_offsets_ = {0};
  std::vector<PageId> in_targets_;
};

/// Incremental builder for Graph.
class GraphBuilder {
 public:
  struct Options {
    /// Drop u -> u edges. PageRank link analysis conventionally ignores
    /// self-endorsement.
    bool remove_self_loops = true;
    /// Collapse parallel edges into one.
    bool deduplicate = true;
  };

  /// Creates a builder for a graph with at least `num_nodes` nodes; AddEdge
  /// grows the node count as needed.
  explicit GraphBuilder(size_t num_nodes = 0) : num_nodes_(num_nodes), options_() {}

  GraphBuilder(size_t num_nodes, Options options) : num_nodes_(num_nodes), options_(options) {}

  /// Adds the directed edge u -> v, growing the node count to cover both.
  void AddEdge(PageId u, PageId v);

  /// Ensures the graph has at least `n` nodes.
  void EnsureNodes(size_t n) {
    if (n > num_nodes_) num_nodes_ = n;
  }

  /// Number of nodes seen so far.
  size_t NumNodes() const { return num_nodes_; }

  /// Finalizes into an immutable Graph. The builder is left empty.
  Graph Build();

 private:
  size_t num_nodes_;
  Options options_;
  std::vector<Edge> edges_;
};

}  // namespace graph
}  // namespace jxp

#endif  // JXP_GRAPH_GRAPH_H_
