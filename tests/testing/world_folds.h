// Folds single reports about external pages into a core::WorldNode the way
// a meeting does: a page-sorted one-entry batch through WorldNode::Merge.

#ifndef JXP_TESTS_TESTING_WORLD_FOLDS_H_
#define JXP_TESTS_TESTING_WORLD_FOLDS_H_

#include <cstdint>
#include <span>
#include <utility>

#include "core/world_node.h"

namespace jxp {
namespace core {

/// Folds one report of in-linking page `page`; `targets` must be sorted
/// unique, non-empty and at most `out_degree` (WorldNode::Append).
inline void FoldEntry(WorldNode& world, graph::PageId page, uint32_t out_degree,
                      double score, std::span<const graph::PageId> targets,
                      CombineMode mode) {
  WorldNode batch;
  batch.Append(page, out_degree, score, targets);
  world.Merge(std::move(batch), mode);
}

/// Folds one report of dangling page `page`.
inline void FoldDangling(WorldNode& world, graph::PageId page, double score,
                         CombineMode mode) {
  WorldNode batch;
  batch.AppendDangling(page, score);
  world.Merge(std::move(batch), mode);
}

}  // namespace core
}  // namespace jxp

#endif  // JXP_TESTS_TESTING_WORLD_FOLDS_H_
