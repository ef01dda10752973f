#ifndef JXP_CORE_MEETING_WIRE_H_
#define JXP_CORE_MEETING_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/world_node.h"
#include "graph/subgraph.h"
#include "wire/meeting_codec.h"

namespace jxp {
namespace core {

/// Bridge between the peer vocabulary (page tables, WorldNode) and
/// the wire codec (DESIGN.md §6g): the world node and the decoded page table
/// already have the codec's page-sorted column layout, so both directions
/// pass the columns through without flattening or sorting. Lives in core —
/// not wire — so the wire library never depends on core types.

/// Serializes one complete meeting message: the page table (pages + scores,
/// chunked) and the world knowledge (skipped when empty).
std::vector<uint8_t> EncodeMeetingMessage(graph::PageTableView pages,
                                          std::span<const double> scores,
                                          const WorldNode& world);

/// What a receiver recovers from a (possibly truncated or corrupted)
/// meeting message.
struct DecodedMeetingMessage {
  /// The sender's page table and scores (a prefix of them under
  /// truncation), kept as decoded: no page index is built for them. Empty
  /// when not even one page decoded — the message then degenerates to a
  /// drop.
  wire::PageTableColumns page_table;
  /// World knowledge; empty when the world frame was absent or lost.
  WorldNode world;
  /// Bytes of fully-decoded frames.
  size_t bytes_consumed = 0;
  /// OK when the entire buffer decoded; otherwise why decoding stopped.
  Status error;
};

/// Decodes the longest valid prefix of `bytes` (lenient, fault-tolerant;
/// see wire::DecodeMeeting).
DecodedMeetingMessage DecodeMeetingMessage(std::span<const uint8_t> bytes);

}  // namespace core
}  // namespace jxp

#endif  // JXP_CORE_MEETING_WIRE_H_
