#include "graph/subgraph.h"

#include <algorithm>

namespace jxp {
namespace graph {

Subgraph Subgraph::Induce(const Graph& global, std::vector<PageId> pages) {
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  Subgraph sg;
  sg.pages_ = std::move(pages);
  sg.succ_offsets_.assign(sg.pages_.size() + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < sg.pages_.size(); ++i) {
    JXP_CHECK_LT(sg.pages_[i], global.NumNodes());
    total += global.OutDegree(sg.pages_[i]);
    sg.succ_offsets_[i + 1] = total;
  }
  sg.succ_.reserve(total);
  for (PageId p : sg.pages_) {
    const auto neighbors = global.OutNeighbors(p);
    sg.succ_.insert(sg.succ_.end(), neighbors.begin(), neighbors.end());
  }
  sg.BuildDerivedIndexes();
  return sg;
}

Subgraph Subgraph::FromKnowledge(std::vector<PageId> pages,
                                 std::vector<std::vector<PageId>> successors) {
  JXP_CHECK_EQ(pages.size(), successors.size());
  // Sort pages, carrying their successor lists along.
  std::vector<size_t> order(pages.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&pages](size_t a, size_t b) { return pages[a] < pages[b]; });

  Subgraph sg;
  sg.succ_offsets_ = {0};
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const size_t src = order[rank];
    // Deduplicate pages. No sentinel: every 32-bit id is a legal page.
    if (!sg.pages_.empty() && pages[src] == sg.pages_.back()) continue;
    sg.pages_.push_back(pages[src]);
    std::vector<PageId>& succ = successors[src];
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    sg.succ_.insert(sg.succ_.end(), succ.begin(), succ.end());
    sg.succ_offsets_.push_back(sg.succ_.size());
  }
  sg.BuildDerivedIndexes();
  return sg;
}

Subgraph Subgraph::Merge(const Subgraph& a, PageTableView b) {
  Subgraph sg;
  sg.pages_.reserve(a.NumLocalPages() + b.NumPages());
  const auto append = [&sg](PageId page, std::span<const PageId> successors) {
    sg.pages_.push_back(page);
    sg.succ_.insert(sg.succ_.end(), successors.begin(), successors.end());
    sg.succ_offsets_.push_back(sg.succ_.size());
  };
  size_t j = 0;
  for (LocalIndex i = 0; i < a.NumLocalPages(); ++i) {
    const PageId page = a.pages_[i];
    for (; j < b.NumPages() && b.pages[j] < page; ++j) append(b.pages[j], b.Successors(j));
    if (j < b.NumPages() && b.pages[j] == page) ++j;  // Shared page: knowledge identical.
    append(page, a.Successors(i));
  }
  for (; j < b.NumPages(); ++j) append(b.pages[j], b.Successors(j));
  sg.BuildDerivedIndexes();
  return sg;
}

std::vector<PageId> Subgraph::AllSuccessors() const {
  std::vector<PageId> all(succ_.begin(), succ_.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

void Subgraph::BuildDerivedIndexes() {
  JXP_CHECK_LT(pages_.size(), size_t{kNotLocal});
  int bits = 1;
  while ((size_t{1} << bits) < 2 * pages_.size()) ++bits;
  index_shift_ = 64 - bits;
  index_.assign(size_t{1} << bits, IndexSlot{});
  const size_t mask = index_.size() - 1;
  for (LocalIndex i = 0; i < pages_.size(); ++i) {
    size_t s = HomeSlot(pages_[i]);
    while (index_[s].local != kNotLocal) s = (s + 1) & mask;
    index_[s] = {pages_[i], i};
  }
  members_.clear();
  const uint64_t span = pages_.empty() ? 0 : uint64_t{pages_.back()} - pages_.front() + 1;
  if (!pages_.empty() && (span + 63) / 64 <= index_.size()) {
    members_base_ = pages_.front();
    members_.assign((span + 63) / 64, 0);
    for (PageId page : pages_) {
      const uint64_t bit = page - members_base_;
      members_[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
  }

  local_out_offsets_.assign(pages_.size() + 1, 0);
  local_out_targets_.clear();
  for (LocalIndex i = 0; i < pages_.size(); ++i) {
    for (PageId target : Successors(i)) {
      const LocalIndex t = LocalIndexOf(target);
      if (t != kNotLocal) local_out_targets_.push_back(t);
    }
    local_out_offsets_[i + 1] = local_out_targets_.size();
  }
}

}  // namespace graph
}  // namespace jxp
