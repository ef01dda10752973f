#include "core/extended_graph.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace jxp {
namespace core {

namespace {

/// Cache effectiveness counters (DESIGN.md §6d): a hit reuses the cached
/// local rows and only regenerates the world row; a miss rebuilds the local
/// rows; a rescale is the guard-loop world-row regeneration.
struct CacheMetrics {
  obs::Counter hits = obs::MetricsRegistry::Global().GetCounter("jxp.extended_cache.hits");
  obs::Counter misses =
      obs::MetricsRegistry::Global().GetCounter("jxp.extended_cache.misses");
  obs::Counter rescales =
      obs::MetricsRegistry::Global().GetCounter("jxp.extended_cache.rescales");
};

CacheMetrics& GetCacheMetrics() {
  static CacheMetrics metrics;
  return metrics;
}

/// Buffers every cache on a thread shares: each Prepare/Rescale fills them
/// and is done with them before it returns, so a cache keeps only its
/// per-link entry indices between meetings.
struct CacheScratch {
  std::vector<uint32_t> link_targets;  // Each world link's local target.
  std::vector<uint32_t> cursor;        // Each target's next fill position.
  std::vector<double> entry_weights;   // Each world entry's world-row weight.
  std::vector<markov::MatrixEntry> world_row;
};

CacheScratch& GetCacheScratch() {
  thread_local CacheScratch scratch;
  return scratch;
}

}  // namespace

void ExtendedSystemCache::RebuildLocalRows(const graph::Subgraph& fragment) {
  const size_t n = fragment.NumLocalPages();
  const size_t num_states = n + 1;
  const uint32_t world_state = static_cast<uint32_t>(n);
  markov::SparseMatrixBuilder builder(num_states);

  // Local rows (Eqs. 6-7). The world row (state n) stays empty here; every
  // Prepare/Rescale splices it in via ReplaceLastRow.
  for (graph::Subgraph::LocalIndex i = 0; i < n; ++i) {
    const size_t degree = fragment.GlobalOutDegree(i);
    if (degree == 0) continue;  // Dangling: handled by the dangling vector.
    const auto locals = fragment.LocalOutNeighbors(i);
    const size_t external = fragment.NumExternalSuccessors(i);
    builder.ReserveRow(i, locals.size() + (external > 0 ? 1 : 0));
    const double w = 1.0 / static_cast<double>(degree);
    for (graph::Subgraph::LocalIndex j : locals) {
      builder.Add(i, j, w);
    }
    if (external > 0) {
      builder.Add(i, world_state, w * static_cast<double>(external));
    }
  }
  system_.matrix = builder.Build();
  num_local_ = n;
  local_rows_valid_ = true;
}

void ExtendedSystemCache::RebuildWorldRow(const WorldNode& world, double denominator) {
  JXP_CHECK_GT(denominator, 0.0);
  const uint32_t world_state = static_cast<uint32_t>(num_local_);
  const wire::WorldColumns& w = world.columns();
  CacheScratch& scratch = GetCacheScratch();

  // World row (Eqs. 8-9): each entry's weight (1/out(r)) * (alpha(r)/alpha_w),
  // the exact arithmetic of a from-scratch build, with the mass accumulated
  // in (target, page) order.
  const double uniform_share =
      w.NumEntries() > 0 ? 1.0 / static_cast<double>(w.NumEntries()) : 0.0;
  std::vector<double>& weights = scratch.entry_weights;
  weights.resize(w.NumEntries());
  for (size_t e = 0; e < w.NumEntries(); ++e) {
    const double assumed_score = weighting_ == WorldLinkWeighting::kScoreProportional
                                     ? w.scores[e]
                                     : denominator * uniform_share;
    weights[e] = (1.0 / static_cast<double>(w.out_degrees[e])) * (assumed_score / denominator);
  }
  double world_out_mass = 0;
  for (const uint32_t e : terms_) world_out_mass += weights[e];
  // Known external dangling pages link (by the uniform-redistribution
  // convention) to every page, so their aggregated score mass flows 1/N to
  // each local page.
  const double dangling_mass = world.TotalDanglingScore();
  const bool dangling = dangling_mass > 0 && num_local_ > 0;
  const double per_page =
      dangling ? (dangling_mass / denominator) / static_cast<double>(global_size_) : 0.0;
  if (dangling) world_out_mass += per_page * static_cast<double>(num_local_);
  // Transiently, the stored external scores can exceed the world score
  // (e.g. right after take-max combining but before the local PR re-run);
  // scale the row back into stochasticity instead of producing a negative
  // self-loop.
  double scale = 1.0;
  system_.world_row_clamped = false;
  if (world_out_mass > 1.0) {
    scale = 1.0 / world_out_mass;
    system_.world_row_clamped = true;
  }
  // One entry per target that has a link (or every target, with dangling
  // mass): its scaled link weights in page order, then the dangling share.
  std::vector<markov::MatrixEntry>& world_row = scratch.world_row;
  world_row.clear();
  for (uint32_t i = 0; i < num_local_; ++i) {
    const uint32_t begin = term_offsets_[i];
    const uint32_t end = term_offsets_[i + 1];
    if (begin == end && !dangling) continue;
    double row_weight = 0;
    for (uint32_t k = begin; k < end; ++k) row_weight += weights[terms_[k]] * scale;
    if (dangling) row_weight += per_page * scale;
    world_row.push_back({i, row_weight});
  }
  const double self_loop = 1.0 - std::min(world_out_mass * scale, 1.0);
  if (self_loop > 0) world_row.push_back({world_state, self_loop});
  system_.matrix.ReplaceLastRow(world_row);
}

const ExtendedGraphSystem& ExtendedSystemCache::Prepare(const graph::Subgraph& fragment,
                                                        const WorldNode& world,
                                                        double world_score,
                                                        size_t global_size,
                                                        WorldLinkWeighting weighting) {
  const size_t n = fragment.NumLocalPages();
  JXP_CHECK_GE(global_size, n) << "global size estimate below local page count";
  JXP_CHECK_GT(world_score, 0.0);

  if (!local_rows_valid_ || num_local_ != n) {
    GetCacheMetrics().misses.Increment();
    RebuildLocalRows(fragment);
  } else {
    GetCacheMetrics().hits.Increment();
  }

  // Group the world node's links, projected onto the fragment, by local
  // target with a counting sort. The world node iterates in page order, so
  // each target's entries stay in page order: the canonical (target, page)
  // order, a function of the world node's content alone.
  const wire::WorldColumns& w = world.columns();
  CacheScratch& scratch = GetCacheScratch();
  std::vector<uint32_t>& link_targets = scratch.link_targets;
  link_targets.resize(w.targets.size());
  term_offsets_.assign(n + 1, 0);
  for (size_t l = 0; l < w.targets.size(); ++l) {
    const graph::Subgraph::LocalIndex t = fragment.LocalIndexOf(w.targets[l]);
    link_targets[l] = t;
    if (t != graph::Subgraph::kNotLocal) ++term_offsets_[t + 1];  // Else projected away.
  }
  for (size_t i = 0; i < n; ++i) term_offsets_[i + 1] += term_offsets_[i];
  terms_.resize(term_offsets_[n]);
  std::vector<uint32_t>& cursor = scratch.cursor;
  cursor.assign(term_offsets_.begin(), term_offsets_.end() - 1);
  for (size_t e = 0; e < w.NumEntries(); ++e) {
    for (uint32_t l = w.target_offsets[e]; l < w.target_offsets[e + 1]; ++l) {
      const uint32_t t = link_targets[l];
      if (t != graph::Subgraph::kNotLocal) terms_[cursor[t]++] = static_cast<uint32_t>(e);
    }
  }
  world_entries_ = w.NumEntries();
  world_links_ = w.targets.size();
  global_size_ = global_size;
  weighting_ = weighting;

  // Teleport vector (Eq. 10), which dangling mass follows as well.
  const size_t num_states = n + 1;
  const uint32_t world_state = static_cast<uint32_t>(n);
  const double uniform = 1.0 / static_cast<double>(global_size);
  system_.teleport.assign(num_states, uniform);
  system_.teleport[world_state] =
      static_cast<double>(global_size - n) / static_cast<double>(global_size);
  if (global_size == n) system_.teleport[world_state] = 0.0;

  RebuildWorldRow(world, world_score);
  prepared_ = true;
  return system_;
}

const ExtendedGraphSystem& ExtendedSystemCache::Rescale(const WorldNode& world,
                                                        double world_score) {
  JXP_CHECK(prepared_ && local_rows_valid_) << "Rescale before Prepare";
  JXP_CHECK(world.NumEntries() == world_entries_ && world.NumLinks() == world_links_)
      << "Rescale with a world node other than the prepared one";
  GetCacheMetrics().rescales.Increment();
  RebuildWorldRow(world, world_score);
  return system_;
}

ExtendedGraphSystem BuildExtendedSystem(const graph::Subgraph& fragment,
                                        const WorldNode& world, double world_score,
                                        size_t global_size,
                                        WorldLinkWeighting weighting) {
  ExtendedSystemCache cache;
  cache.Prepare(fragment, world, world_score, global_size, weighting);
  return std::move(cache).TakeSystem();
}

}  // namespace core
}  // namespace jxp
