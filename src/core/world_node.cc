#include "core/world_node.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace jxp {
namespace core {

namespace {

/// Out-degree conflicts resolved by Merge (see its comment). Deterministic:
/// a pure function of the observed messages.
obs::Counter& OutDegreeConflicts() {
  static obs::Counter counter =
      obs::MetricsRegistry::Global().GetCounter("jxp.world.out_degree_conflicts");
  return counter;
}

bool StrictlyAscending(std::span<const graph::PageId> ids) {
  return std::adjacent_find(ids.begin(), ids.end(), std::greater_equal<>()) == ids.end();
}

/// Merge builds its union here and copies it into the node at exact size:
/// one buffer per thread, so no node keeps a merge's spare capacity.
wire::WorldColumns& MergeScratch() {
  thread_local wire::WorldColumns scratch;
  return scratch;
}

/// Replaces `to` by a copy of `from` whose capacity is its size.
template <typename T>
void CopyExact(const std::vector<T>& from, std::vector<T>& to) {
  to = std::vector<T>(from.begin(), from.end());
}

/// Appends entries [from, to) of `src` to the entry columns of `out`.
void AppendEntries(const wire::WorldColumns& src, size_t from, size_t to,
                   wire::WorldColumns& out) {
  out.pages.insert(out.pages.end(), src.pages.begin() + from, src.pages.begin() + to);
  out.out_degrees.insert(out.out_degrees.end(), src.out_degrees.begin() + from,
                         src.out_degrees.begin() + to);
  out.scores.insert(out.scores.end(), src.scores.begin() + from, src.scores.begin() + to);
  const size_t base = out.targets.size() - src.target_offsets[from];
  out.targets.insert(out.targets.end(), src.targets.begin() + src.target_offsets[from],
                     src.targets.begin() + src.target_offsets[to]);
  for (size_t e = from; e < to; ++e) {
    out.target_offsets.push_back(static_cast<uint32_t>(src.target_offsets[e + 1] + base));
  }
}

/// The end of the run of `pages` from `from` on that sorts before `bound`.
size_t RunBefore(const std::vector<graph::PageId>& pages, size_t from,
                 graph::PageId bound) {
  return static_cast<size_t>(
      std::lower_bound(pages.begin() + from, pages.end(), bound) - pages.begin());
}

/// The first position at or after `from` whose page is not below `page`
/// (`pages` ascending): probes 1, 2, 4, ... entries ahead of `from`, then
/// binary-searches the last step, so passing over d pages costs O(log d)
/// comparisons.
size_t Gallop(std::span<const graph::PageId> pages, size_t from, graph::PageId page) {
  size_t bound = 1;
  while (from + bound <= pages.size() && pages[from + bound - 1] < page) bound *= 2;
  const auto first = pages.begin() + static_cast<ptrdiff_t>(from + bound / 2);
  const auto last = pages.begin() + static_cast<ptrdiff_t>(std::min(from + bound, pages.size()));
  return static_cast<size_t>(std::lower_bound(first, last, page) - pages.begin());
}

}  // namespace

WorldNode::WorldNode(wire::WorldColumns columns) : columns_(std::move(columns)) {
  // The decoder validated every element (ascending pages, targets and
  // dangling pages; 1 <= |targets| <= out-degree; non-negative scores), so
  // only the column shapes are checked here.
  const wire::WorldColumns& c = columns_;
  const size_t n = c.pages.size();
  JXP_CHECK(c.out_degrees.size() == n && c.scores.size() == n &&
            c.target_offsets.size() == n + 1 && c.target_offsets.front() == 0 &&
            c.target_offsets.back() == c.targets.size() &&
            c.dangling_pages.size() == c.dangling_scores.size())
      << "malformed world columns";
}

void WorldNode::Append(graph::PageId page, uint32_t out_degree, double score,
                       std::span<const graph::PageId> targets) {
  wire::WorldColumns& c = columns_;
  JXP_CHECK(c.pages.empty() || c.pages.back() < page) << "Append out of page order";
  JXP_CHECK(!targets.empty() && targets.size() <= out_degree)
      << "page " << page << ": " << targets.size() << " targets, out-degree "
      << out_degree;
  JXP_CHECK(StrictlyAscending(targets));
  JXP_CHECK_GE(score, 0.0);
  JXP_CHECK_LE(c.targets.size() + targets.size(), kMaxLinks)
      << "world links exceed the 32-bit offsets";
  c.pages.push_back(page);
  c.out_degrees.push_back(out_degree);
  c.scores.push_back(score);
  c.targets.insert(c.targets.end(), targets.begin(), targets.end());
  c.target_offsets.push_back(static_cast<uint32_t>(c.targets.size()));
}

void WorldNode::AppendDangling(graph::PageId page, double score) {
  wire::WorldColumns& c = columns_;
  JXP_CHECK(c.dangling_pages.empty() || c.dangling_pages.back() < page)
      << "AppendDangling out of page order";
  JXP_CHECK_GE(score, 0.0);
  c.dangling_pages.push_back(page);
  c.dangling_scores.push_back(score);
}

void WorldNode::Merge(WorldNode batch, CombineMode mode) {
  const wire::WorldColumns& a = columns_;
  const wire::WorldColumns& b = batch.columns_;
  wire::WorldColumns& out = MergeScratch();
  uint64_t conflicts = 0;
  if (!b.pages.empty()) {
    out.pages.clear();
    out.out_degrees.clear();
    out.scores.clear();
    out.target_offsets.assign(1, 0);
    out.targets.clear();
    size_t i = 0;
    size_t j = 0;
    while (i < a.pages.size() && j < b.pages.size()) {
      if (a.pages[i] < b.pages[j]) {
        const size_t run = RunBefore(a.pages, i, b.pages[j]);
        AppendEntries(a, i, run, out);
        i = run;
      } else if (b.pages[j] < a.pages[i]) {
        const size_t run = RunBefore(b.pages, j, a.pages[i]);
        AppendEntries(b, j, run, out);
        j = run;
      } else {
        // A known page: union the target lists, resolve the out-degree.
        const std::span<const graph::PageId> known = a.Targets(i);
        const std::span<const graph::PageId> reported = b.Targets(j);
        std::set_union(known.begin(), known.end(), reported.begin(), reported.end(),
                       std::back_inserter(out.targets));
        const size_t num_targets = out.targets.size() - out.target_offsets.back();
        uint32_t out_degree = std::max(a.out_degrees[i], b.out_degrees[j]);
        if (a.out_degrees[i] != b.out_degrees[j]) ++conflicts;
        if (num_targets > out_degree) {
          out_degree = static_cast<uint32_t>(num_targets);
          ++conflicts;
        }
        out.pages.push_back(a.pages[i]);
        out.out_degrees.push_back(out_degree);
        out.scores.push_back(CombineScores(mode, a.scores[i], b.scores[j]));
        out.target_offsets.push_back(static_cast<uint32_t>(out.targets.size()));
        ++i;
        ++j;
      }
    }
    AppendEntries(a, i, a.pages.size(), out);
    AppendEntries(b, j, b.pages.size(), out);
    JXP_CHECK_LE(out.targets.size(), kMaxLinks) << "world links exceed the 32-bit offsets";
    CopyExact(out.pages, columns_.pages);
    CopyExact(out.out_degrees, columns_.out_degrees);
    CopyExact(out.scores, columns_.scores);
    CopyExact(out.target_offsets, columns_.target_offsets);
    CopyExact(out.targets, columns_.targets);
  }
  if (!b.dangling_pages.empty()) {
    std::vector<graph::PageId>& pages = out.dangling_pages;
    std::vector<double>& scores = out.dangling_scores;
    pages.clear();
    scores.clear();
    size_t i = 0;
    size_t j = 0;
    while (i < a.dangling_pages.size() && j < b.dangling_pages.size()) {
      const graph::PageId known = a.dangling_pages[i];
      const graph::PageId reported = b.dangling_pages[j];
      if (known < reported) {
        pages.push_back(known);
        scores.push_back(a.dangling_scores[i++]);
      } else if (reported < known) {
        pages.push_back(reported);
        scores.push_back(b.dangling_scores[j++]);
      } else {
        pages.push_back(known);
        scores.push_back(CombineScores(mode, a.dangling_scores[i], b.dangling_scores[j]));
        ++i;
        ++j;
      }
    }
    pages.insert(pages.end(), a.dangling_pages.begin() + i, a.dangling_pages.end());
    scores.insert(scores.end(), a.dangling_scores.begin() + i, a.dangling_scores.end());
    pages.insert(pages.end(), b.dangling_pages.begin() + j, b.dangling_pages.end());
    scores.insert(scores.end(), b.dangling_scores.begin() + j, b.dangling_scores.end());
    CopyExact(pages, columns_.dangling_pages);
    CopyExact(scores, columns_.dangling_scores);
  }
  if (conflicts > 0 && obs::Enabled()) OutDegreeConflicts().Increment(conflicts);
}

WorldFold::WorldFold(WorldNode& world, CombineMode mode, bool in_place)
    : world_(world), mode_(mode), in_place_(in_place) {
  JXP_CHECK(!in_place || mode == CombineMode::kTakeMax)
      << "the in-place fold is exact under take-max only";
}

void WorldFold::NextStream() {
  JXP_CHECK_EQ(stream_, 0u) << "a fold has two report streams";
  stream_ = 1;
  entry_cursor_ = 0;
  dangling_cursor_ = 0;
}

void WorldFold::Add(graph::PageId page, uint32_t out_degree, double score,
                    std::span<const graph::PageId> targets) {
  if (in_place_) {
    wire::WorldColumns& c = world_.columns_;
    const size_t e = entry_cursor_ = Gallop(c.pages, entry_cursor_, page);
    if (e < c.pages.size() && c.pages[e] == page &&
        std::ranges::includes(c.Targets(e), targets)) {
      // Merge would union to `known`, whose size the out-degree already
      // covers, so only the out-degree and the score can change.
      uint32_t& degree = c.out_degrees[e];
      double& stored = c.scores[e];
      if (degree != out_degree) ++conflicts_;
      const bool raised = degree < out_degree || stored < score;
      degree = std::max(degree, out_degree);
      stored = CombineScores(mode_, stored, score);
      ++(raised ? tally_.in_place : tally_.unchanged);
      return;
    }
  }
  ++tally_.structural;
  batches_[stream_].Append(page, out_degree, score, targets);
}

void WorldFold::AddDangling(graph::PageId page, double score) {
  if (in_place_) {
    wire::WorldColumns& c = world_.columns_;
    const size_t d = dangling_cursor_ = Gallop(c.dangling_pages, dangling_cursor_, page);
    if (d < c.dangling_pages.size() && c.dangling_pages[d] == page) {
      double& stored = c.dangling_scores[d];
      ++(stored < score ? tally_.in_place : tally_.unchanged);
      stored = CombineScores(mode_, stored, score);
      return;
    }
  }
  ++tally_.structural;
  batches_[stream_].AppendDangling(page, score);
}

void WorldFold::Finish() {
  batches_[0].Merge(std::move(batches_[1]), mode_);
  world_.Merge(std::move(batches_[0]), mode_);
  if (conflicts_ > 0 && obs::Enabled()) OutDegreeConflicts().Increment(conflicts_);
}

void WorldNode::ScaleScores(double factor) {
  JXP_CHECK_GE(factor, 0.0);
  for (double& score : columns_.scores) score *= factor;
  for (double& score : columns_.dangling_scores) score *= factor;
}

std::optional<ExternalPageInfo> WorldNode::Find(graph::PageId page) const {
  const auto it = std::lower_bound(columns_.pages.begin(), columns_.pages.end(), page);
  if (it == columns_.pages.end() || *it != page) return std::nullopt;
  return Entry(static_cast<size_t>(it - columns_.pages.begin()));
}

std::optional<double> WorldNode::FindDangling(graph::PageId page) const {
  const auto& pages = columns_.dangling_pages;
  const auto it = std::lower_bound(pages.begin(), pages.end(), page);
  if (it == pages.end() || *it != page) return std::nullopt;
  return columns_.dangling_scores[static_cast<size_t>(it - pages.begin())];
}

double WorldNode::TotalDanglingScore() const {
  // Page order: the sum feeds the world row, so it must depend on the
  // world node's content only.
  double total = 0;
  for (double score : columns_.dangling_scores) total += score;
  return total;
}

double WorldNode::WireBytes() const {
  return static_cast<double>(NumEntries()) * (8 + 4 + 8) +
         static_cast<double>(NumLinks()) * 8 +
         static_cast<double>(NumDangling()) * (8 + 8);
}

}  // namespace core
}  // namespace jxp
