#ifndef JXP_GRAPH_SUBGRAPH_H_
#define JXP_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace jxp {
namespace graph {

/// A read-only page table: pages in strictly ascending order, page i with
/// its complete successor list successors[successor_offsets[i],
/// successor_offsets[i + 1]) (global ids, strictly ascending). It views a
/// fragment's own arrays (Subgraph::Table) or a decoded meeting message's
/// columns. It keeps no page index, so it answers no membership query.
struct PageTableView {
  std::span<const PageId> pages;
  /// pages.size() + 1 offsets into `successors`.
  std::span<const uint64_t> successor_offsets;
  std::span<const PageId> successors;

  size_t NumPages() const { return pages.size(); }

  std::span<const PageId> Successors(size_t i) const {
    return successors.subspan(successor_offsets[i],
                              successor_offsets[i + 1] - successor_offsets[i]);
  }
};

/// A peer's local Web fragment.
///
/// A Subgraph holds a set of crawled pages (identified by their global
/// PageIds) together with the *complete out-link knowledge* of those pages: a
/// crawler that fetched page p saw every link on p, so the fragment knows all
/// successors of its local pages — both the local ones (targets inside the
/// fragment) and the external ones (targets the peer has not crawled). That
/// is exactly the knowledge the JXP world node needs: links from local pages
/// to external pages become links to the world node.
///
/// Local pages are addressed by a dense local index [0, NumLocalPages()); the
/// mapping to global PageIds is exposed both ways.
class Subgraph {
 public:
  /// Dense index of a page within this fragment.
  using LocalIndex = uint32_t;

  /// Sentinel for "not a local page".
  static constexpr LocalIndex kNotLocal = static_cast<LocalIndex>(-1);

  Subgraph() = default;

  /// Builds the fragment holding `pages` (deduplicated, any order) of the
  /// global graph, copying each page's full successor list from `global`.
  static Subgraph Induce(const Graph& global, std::vector<PageId> pages);

  /// Builds a fragment from explicit out-link knowledge: `successors[i]` is
  /// the complete successor list (global ids, any order) of `pages[i]`.
  static Subgraph FromKnowledge(std::vector<PageId> pages,
                                std::vector<std::vector<PageId>> successors);

  /// Merges fragment `a` with a partner's page table `b` (the paper's
  /// full-merge step) in one sorted pass: the page set is the union, and
  /// each page keeps its full successor knowledge. A page in both keeps
  /// a's list; both crawled the same global page, so the lists agree.
  static Subgraph Merge(const Subgraph& a, PageTableView b);

  /// Number of local pages.
  size_t NumLocalPages() const { return pages_.size(); }

  /// Number of intra-fragment links.
  size_t NumLocalEdges() const { return local_out_targets_.size(); }

  /// Number of links from local pages to external pages.
  size_t NumExternalOutEdges() const { return succ_.size() - local_out_targets_.size(); }

  /// Global id of a local page.
  PageId GlobalId(LocalIndex i) const {
    JXP_CHECK_LT(i, pages_.size());
    return pages_[i];
  }

  /// All local pages, sorted by global id ascending.
  std::span<const PageId> Pages() const { return pages_; }

  /// The pages and their complete successor lists, as a page table.
  PageTableView Table() const { return {pages_, succ_offsets_, succ_}; }

  /// Local index of a global page, or kNotLocal.
  LocalIndex LocalIndexOf(PageId global) const {
    if (index_.empty()) return kNotLocal;
    const size_t mask = index_.size() - 1;
    for (size_t s = HomeSlot(global);; s = (s + 1) & mask) {
      const IndexSlot& slot = index_[s];
      if (slot.local == kNotLocal || slot.page == global) return slot.local;
    }
  }

  /// True iff the fragment contains `global`: a bit test when the pages
  /// are dense in their id range (see members_), else an index probe.
  bool Contains(PageId global) const {
    if (members_.empty()) return LocalIndexOf(global) != kNotLocal;
    const uint64_t bit = uint64_t{global} - members_base_;  // Wraps below the base.
    return bit < members_.size() * 64 && (members_[bit >> 6] >> (bit & 63) & 1) != 0;
  }

  /// The complete successor list (global ids, sorted) of local page `i` —
  /// the page's true global out-links.
  std::span<const PageId> Successors(LocalIndex i) const {
    JXP_CHECK_LT(i, pages_.size());
    return {succ_.data() + succ_offsets_[i], succ_.data() + succ_offsets_[i + 1]};
  }

  /// The page's true global out-degree (local + external successors).
  size_t GlobalOutDegree(LocalIndex i) const { return Successors(i).size(); }

  /// Successors of `i` that are themselves local pages, as local indices.
  std::span<const LocalIndex> LocalOutNeighbors(LocalIndex i) const {
    JXP_CHECK_LT(i, pages_.size());
    return {local_out_targets_.data() + local_out_offsets_[i],
            local_out_targets_.data() + local_out_offsets_[i + 1]};
  }

  /// Number of successors of `i` that are external pages.
  size_t NumExternalSuccessors(LocalIndex i) const {
    return GlobalOutDegree(i) - LocalOutNeighbors(i).size();
  }

  /// The union of all successor lists, as sorted unique global ids. This is
  /// the `successors(A)` set used by the pre-meetings synopsis (Section 4.3).
  std::vector<PageId> AllSuccessors() const;

 private:
  /// One slot of the page index; `local == kNotLocal` marks an empty slot,
  /// so every 32-bit id (0xFFFFFFFF included) is a legal key.
  struct IndexSlot {
    PageId page = 0;
    LocalIndex local = kNotLocal;
  };

  /// Home slot of `global`: a multiplicative hash, top bits of the product.
  size_t HomeSlot(PageId global) const {
    return static_cast<size_t>((uint64_t{global} * 0x9E3779B97F4A7C15ull) >> index_shift_);
  }

  /// Rebuilds index_, members_ and the local adjacency CSR from pages_ /
  /// succ_.
  void BuildDerivedIndexes();

  std::vector<PageId> pages_;
  // Page id -> local index: open addressing with linear probing over a
  // power-of-two table of at least 2 * pages_.size() slots (so probes always
  // meet an empty slot). Empty for a default-constructed fragment.
  std::vector<IndexSlot> index_;
  int index_shift_ = 63;
  // Membership bitmap for Contains: one bit per id of [members_base_,
  // members_base_ + 64 * members_.size()), set for local pages. Built only
  // when it is no larger than index_ (pages dense in their id range), else
  // empty.
  std::vector<uint64_t> members_;
  PageId members_base_ = 0;
  // CSR over pages_ of complete successor lists (global ids, sorted).
  std::vector<uint64_t> succ_offsets_ = {0};
  std::vector<PageId> succ_;
  // CSR over pages_ of intra-fragment adjacency (local indices).
  std::vector<uint64_t> local_out_offsets_ = {0};
  std::vector<LocalIndex> local_out_targets_;
};

}  // namespace graph
}  // namespace jxp

#endif  // JXP_GRAPH_SUBGRAPH_H_
