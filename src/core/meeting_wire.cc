#include "core/meeting_wire.h"

#include <utility>

namespace jxp {
namespace core {

std::vector<uint8_t> EncodeMeetingMessage(graph::PageTableView pages,
                                          std::span<const double> scores,
                                          const WorldNode& world) {
  std::vector<uint8_t> out;
  wire::EncodeScoreList(pages, scores, out);
  // The world node keeps the codec's page-sorted layout: encoded in place.
  wire::EncodeWorldKnowledge(world.columns(), out);
  return out;
}

DecodedMeetingMessage DecodeMeetingMessage(std::span<const uint8_t> bytes) {
  wire::DecodedMeeting decoded = wire::DecodeMeeting(bytes);
  DecodedMeetingMessage result;
  result.bytes_consumed = decoded.bytes_consumed;
  result.error = std::move(decoded.error);

  // The codec validated what it returns (ascending pages, ascending
  // successor and target lists, 1 <= |targets| <= out-degree), which is
  // exactly the canonical form a page table and the world node keep: both
  // adopt the columns without re-sorting.
  result.page_table = std::move(decoded.page_table);
  result.world = WorldNode(std::move(decoded.world));
  return result;
}

}  // namespace core
}  // namespace jxp
